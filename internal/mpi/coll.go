package mpi

import (
	"fmt"

	"commoverlap/internal/sim"
)

// Collective message tags live far above the application tag space. Each
// collective call on a communicator gets a block of collTagStride tags, so
// concurrent collectives on duplicated communicators (and back-to-back
// collectives on one communicator) never cross-match. MPI's requirement
// that all ranks issue collectives on a communicator in the same order makes
// the per-rank call counters agree.
const (
	collTagBase   = 1 << 24
	collTagStride = 4096
)

// Algorithm switch-over defaults, following the MPICH defaults in spirit.
// Each World snapshots them at creation into its BcastLongMsg and
// ReduceLongMsg fields, so ablations and the auto-tuner can vary the
// switch points per job — concurrently, without mutating shared state.
const (
	// DefaultBcastLongMsg: above this byte count Bcast uses binomial
	// scatter + ring allgather instead of a binomial tree.
	DefaultBcastLongMsg int64 = 128 << 10
	// DefaultReduceLongMsg: above this byte count Reduce/Allreduce use
	// Rabenseifner's reduce-scatter-based algorithms instead of binomial
	// trees / recursive doubling.
	DefaultReduceLongMsg int64 = 64 << 10
)

// postOverhead is the fixed CPU cost of issuing a (nonblocking) operation.
const postOverhead = 3e-6

func (c *Comm) nextCollTag() int {
	t := collTagBase + c.collSeq*collTagStride
	c.collSeq++
	if c.Size() >= collTagStride/2 {
		panic(fmt.Sprintf("mpi: communicator of %d ranks exceeds collective tag stride", c.Size()))
	}
	return t
}

// chargeReduceArith blocks sp while the rank's CPU combines bytes of
// reduction operands.
func (c *Comm) chargeReduceArith(sp *sim.Proc, bytes int64) {
	c.p.w.Net.ChargeCPU(sp, c.p.st.ep, float64(bytes)/c.p.w.Net.Cfg.ReduceRate)
}

// chargeStaging blocks sp while the rank's CPU stages/packs a collective
// buffer. This is the "posting cost" visible in the paper's Fig. 6: it is
// paid inline by the caller, so posting several nonblocking collectives
// serializes their staging on the rank's CPU.
func (c *Comm) chargeStaging(sp *sim.Proc, bytes int64, factor float64) {
	rate := c.p.w.Net.Cfg.StageRate * factor
	c.p.w.Net.ChargeCPU(sp, c.p.st.ep, postOverhead+float64(bytes)/rate)
}

func (c *Comm) abs(vr, root int) int { return (vr + root) % c.Size() }

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

// bcastRun executes the broadcast schedule on behalf of sp. buf is the full
// payload on the root and the destination buffer elsewhere.
func (c *Comm) bcastRun(sp *sim.Proc, root int, buf Buffer, tag int) {
	p := c.Size()
	if p == 1 {
		return
	}
	switch c.p.w.BcastAlg {
	case AlgAuto:
		if buf.Bytes() <= c.p.w.BcastLongMsg || p == 2 {
			c.bcastBinomial(sp, root, buf, tag)
			return
		}
		c.bcastScatterAllgather(sp, root, buf, tag)
	case AlgBinomial:
		c.bcastBinomial(sp, root, buf, tag)
	case AlgScatterAllgather:
		c.bcastScatterAllgather(sp, root, buf, tag)
	default:
		panic(fmt.Sprintf("mpi: unknown bcast algorithm %q", c.p.w.BcastAlg))
	}
}

// bcastBinomial is the classic binomial-tree broadcast: log2(p) rounds,
// full payload per hop.
func (c *Comm) bcastBinomial(sp *sim.Proc, root int, buf Buffer, tag int) {
	p := c.Size()
	vr := (c.rank - root + p) % p
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			c.recvOn(sp, c.abs(vr-mask, root), tag, buf)
			break
		}
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < p {
			c.sendOn(sp, c.abs(vr+mask, root), tag, buf)
		}
	}
}

// bcastScatterAllgather is the van de Geijn long-message broadcast: a
// binomial scatter of ceil(n/p)-sized pieces followed by a ring allgather.
// Total volume per rank ~ 2(p-1)/p * n, the cost the paper's model assumes.
func (c *Comm) bcastScatterAllgather(sp *sim.Proc, root int, buf Buffer, tag int) {
	p := c.Size()
	n := buf.Len()
	seg := (n + p - 1) / p
	pieceLo := func(i int) int { return min(i*seg, n) }
	pieceHi := func(i int) int { return min((i+1)*seg, n) }
	piece := func(i int) Buffer { return buf.Slice(pieceLo(i), pieceHi(i)) }

	vr := (c.rank - root + p) % p

	// Binomial scatter (MPICH scatter_for_bcast): rank vr ends up holding
	// elements [vr*seg, n) clipped to its subtree, i.e. finally piece vr.
	curr := 0
	if vr == 0 {
		curr = n
	}
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			recvElems := n - vr*seg
			if recvElems <= 0 {
				curr = 0
			} else {
				st := c.recvOn(sp, c.abs(vr-mask, root), tag, buf.Slice(pieceLo(vr), n))
				curr = int(st.Bytes / 8)
			}
			break
		}
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < p {
			sendElems := curr - seg*mask
			if sendElems > 0 {
				lo := pieceLo(vr + mask)
				c.sendOn(sp, c.abs(vr+mask, root), tag, buf.Slice(lo, lo+sendElems))
				curr -= sendElems
			}
		}
	}

	// Ring allgather: p-1 rounds; in round k each rank forwards the piece it
	// holds for virtual index (vr-k) to its right neighbor.
	right := c.abs(vr+1, root)
	left := c.abs(vr-1+p, root)
	for k := 0; k < p-1; k++ {
		sendIdx := (vr - k + p) % p
		recvIdx := (vr - k - 1 + p) % p
		sreq := c.isendOn(sp, right, tag+1+k, piece(sendIdx))
		c.recvOn(sp, left, tag+1+k, piece(recvIdx))
		sreq.waitFree(sp)
	}
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

// reduceRun executes the reduction schedule. sendBuf is each rank's
// contribution; recvBuf receives the result on the root (ignored elsewhere;
// pass Buffer{}).
func (c *Comm) reduceRun(sp *sim.Proc, root int, sendBuf, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	if p == 1 {
		recvBuf.copyFrom(sendBuf)
		return
	}
	switch c.p.w.ReduceAlg {
	case AlgAuto:
		if sendBuf.Bytes() <= c.p.w.ReduceLongMsg || p == 2 {
			c.reduceBinomial(sp, root, sendBuf, recvBuf, op, tag)
			return
		}
		c.reduceRabenseifner(sp, root, sendBuf, recvBuf, op, tag)
	case AlgBinomial:
		c.reduceBinomial(sp, root, sendBuf, recvBuf, op, tag)
	case AlgRabenseifner:
		c.reduceRabenseifner(sp, root, sendBuf, recvBuf, op, tag)
	default:
		panic(fmt.Sprintf("mpi: unknown reduce algorithm %q", c.p.w.ReduceAlg))
	}
}

// reduceBinomial combines up a binomial tree rooted (virtually) at root:
// log2(p) rounds, full payload per hop, combine at every internal vertex.
func (c *Comm) reduceBinomial(sp *sim.Proc, root int, sendBuf, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	w := c.p.w
	vr := (c.rank - root + p) % p
	acc := w.cloneBuf(sendBuf)
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask == 0 {
			srcVr := vr | mask
			if srcVr < p {
				tmp := w.getScratch(acc, acc.Len())
				c.recvOn(sp, c.abs(srcVr, root), tag, tmp)
				c.chargeReduceArith(sp, acc.Bytes())
				combineInto(acc, tmp, op)
				w.releaseScratch(tmp)
			}
		} else {
			c.sendOn(sp, c.abs(vr-mask, root), tag, acc)
			w.releaseScratch(acc)
			return
		}
	}
	recvBuf.copyFrom(acc) // only the root reaches here
	w.releaseScratch(acc)
}

// rsFold handles the non-power-of-two preamble of Rabenseifner's
// algorithms: the first 2*rem ranks pair up, odd ranks send their data to
// the even partner and drop out, leaving pof2 participants with "new ranks".
// It returns (newrank, pof2); newrank == -1 for ranks that dropped out.
func (c *Comm) rsFold(sp *sim.Proc, acc Buffer, op Op, tag int) (newrank, pof2 int) {
	p := c.Size()
	pof2 = 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	switch {
	case c.rank < 2*rem && c.rank%2 != 0:
		c.sendOn(sp, c.rank-1, tag, acc)
		return -1, pof2
	case c.rank < 2*rem:
		tmp := c.p.w.getScratch(acc, acc.Len())
		c.recvOn(sp, c.rank+1, tag, tmp)
		c.chargeReduceArith(sp, acc.Bytes())
		combineInto(acc, tmp, op)
		c.p.w.releaseScratch(tmp)
		return c.rank / 2, pof2
	default:
		return c.rank - rem, pof2
	}
}

// rsOldRank maps a post-fold new rank back to a comm rank.
func rsOldRank(newrank, p, pof2 int) int {
	rem := p - pof2
	if newrank < rem {
		return newrank * 2
	}
	return newrank + rem
}

// rsRange returns the element range of n that new rank nr owns after the
// recursive-halving reduce-scatter over pof2 ranks (keep-lower-half when the
// current bit is 0, scanning bits high to low).
func rsRange(n, pof2, nr int) (lo, hi int) {
	lo, hi = 0, n
	for mask := pof2 >> 1; mask > 0; mask >>= 1 {
		mid := lo + (hi-lo)/2
		if nr&mask == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// rsHalving performs the recursive-halving reduce-scatter among the pof2
// post-fold ranks, accumulating into acc. It returns the element range the
// caller owns afterwards.
func (c *Comm) rsHalving(sp *sim.Proc, acc Buffer, op Op, newrank, pof2, tagBase int) (lo, hi int) {
	p := c.Size()
	lo, hi = 0, acc.Len()
	round := 0
	for mask := pof2 >> 1; mask > 0; mask >>= 1 {
		partner := rsOldRank(newrank^mask, p, pof2)
		mid := lo + (hi-lo)/2
		var keepLo, keepHi, sendLo, sendHi int
		if newrank&mask == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		tmp := c.p.w.getScratch(acc, keepHi-keepLo)
		sreq := c.isendOn(sp, partner, tagBase+round, acc.Slice(sendLo, sendHi))
		c.recvOn(sp, partner, tagBase+round, tmp)
		keep := acc.Slice(keepLo, keepHi)
		c.chargeReduceArith(sp, keep.Bytes())
		combineInto(keep, tmp, op)
		c.p.w.releaseScratch(tmp)
		sreq.waitFree(sp)
		lo, hi = keepLo, keepHi
		round++
	}
	return lo, hi
}

// reduceRabenseifner is the long-message reduction: fold to a power of two,
// recursive-halving reduce-scatter, then gather the scattered pieces to the
// root. Volume per rank ~ 2(p-1)/p * n, matching the paper's cost model.
// The final gather sends each piece directly to the root: the root-side
// volume equals the binomial gather's and the pieces pipeline through the
// simulated fabric.
func (c *Comm) reduceRabenseifner(sp *sim.Proc, root int, sendBuf, recvBuf Buffer, op Op, tagBase int) {
	p := c.Size()
	w := c.p.w
	n := sendBuf.Len()
	acc := w.cloneBuf(sendBuf)
	newrank, pof2 := c.rsFold(sp, acc, op, tagBase)

	var myLo, myHi int
	if newrank >= 0 {
		myLo, myHi = c.rsHalving(sp, acc, op, newrank, pof2, tagBase+1)
	}

	gatherTag := tagBase + 40
	rem := p - pof2
	rootNew := -1
	if root >= 2*rem {
		rootNew = root - rem
	} else if root%2 == 0 {
		rootNew = root / 2
	}
	if c.rank == root {
		if rootNew >= 0 && myHi > myLo {
			recvBuf.Slice(myLo, myHi).copyFrom(acc.Slice(myLo, myHi))
		}
		for nr := 0; nr < pof2; nr++ {
			if nr == rootNew {
				continue
			}
			lo, hi := rsRange(n, pof2, nr)
			if hi <= lo {
				continue
			}
			c.recvOn(sp, rsOldRank(nr, p, pof2), gatherTag, recvBuf.Slice(lo, hi))
		}
		w.releaseScratch(acc)
		return
	}
	if newrank >= 0 && myHi > myLo {
		c.sendOn(sp, root, gatherTag, acc.Slice(myLo, myHi))
	}
	w.releaseScratch(acc)
}

// ---------------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------------

// allreduceRun reduces buf across all ranks, leaving the result in buf
// everywhere (in-place, MPI_IN_PLACE style).
func (c *Comm) allreduceRun(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	if p == 1 {
		return
	}
	switch c.p.w.AllreduceAlg {
	case AlgAuto:
		if buf.Bytes() <= c.p.w.ReduceLongMsg {
			c.allreduceRecDoubling(sp, buf, op, tagBase)
			return
		}
		c.allreduceRabenseifner(sp, buf, op, tagBase)
	case AlgRecDouble:
		c.allreduceRecDoubling(sp, buf, op, tagBase)
	case AlgRabenseifner:
		c.allreduceRabenseifner(sp, buf, op, tagBase)
	case AlgRing:
		c.allreduceRing(sp, buf, op, tagBase)
	case AlgBruck:
		c.allreduceBruck(sp, buf, op, tagBase)
	case AlgShift:
		c.allreduceShift(sp, buf, op, tagBase)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %q", c.p.w.AllreduceAlg))
	}
}

// allreduceRecDoubling: fold to a power of two, exchange full buffers for
// log2(pof2) rounds, unfold.
func (c *Comm) allreduceRecDoubling(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	newrank, pof2 := c.rsFold(sp, buf, op, tagBase)
	if newrank >= 0 {
		round := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := rsOldRank(newrank^mask, p, pof2)
			tmp := c.p.w.getScratch(buf, buf.Len())
			sreq := c.isendOn(sp, partner, tagBase+round, buf)
			c.recvOn(sp, partner, tagBase+round, tmp)
			// My receive completing does not mean my send has captured its
			// payload: a rendezvous send only clones buf when the partner's
			// CTS arrives, and under latency jitter that control message can
			// trail the partner's bulk data. Wait for the send before
			// mutating the accumulator (same hazard, and same fix, as the
			// Bruck schedule), or the partner combines post-combine values.
			sreq.waitFree(sp)
			c.chargeReduceArith(sp, buf.Bytes())
			combineInto(buf, tmp, op)
			c.p.w.releaseScratch(tmp)
			round++
		}
	}
	c.rsUnfold(sp, buf, pof2, tagBase+30)
}

// rsUnfold returns the result to the ranks that dropped out in rsFold.
func (c *Comm) rsUnfold(sp *sim.Proc, buf Buffer, pof2, tag int) {
	rem := c.Size() - pof2
	if c.rank < 2*rem {
		if c.rank%2 == 0 {
			c.sendOn(sp, c.rank+1, tag, buf)
		} else {
			c.recvOn(sp, c.rank-1, tag, buf)
		}
	}
}

// allreduceRabenseifner: fold, recursive-halving reduce-scatter, then a
// recursive-doubling allgather that unwinds the halving ranges, then unfold.
func (c *Comm) allreduceRabenseifner(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	n := buf.Len()
	newrank, pof2 := c.rsFold(sp, buf, op, tagBase)

	if newrank >= 0 {
		lo, hi := c.rsHalving(sp, buf, op, newrank, pof2, tagBase+1)
		// Allgather by unwinding: at each level exchange my accumulated
		// range with the partner holding the sibling half.
		round := 20
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := rsOldRank(newrank^mask, p, pof2)
			// The sibling range at this level: recompute the enclosing range
			// of the pair and take the complement of mine.
			plo, phi := enclosingRange(n, pof2, newrank, mask)
			mid := plo + (phi-plo)/2
			var sibLo, sibHi int
			if newrank&mask == 0 {
				sibLo, sibHi = mid, phi // I hold the lower half
			} else {
				sibLo, sibHi = plo, mid
			}
			sreq := c.isendOn(sp, partner, tagBase+round, buf.Slice(lo, hi))
			if sibHi > sibLo {
				c.recvOn(sp, partner, tagBase+round, buf.Slice(sibLo, sibHi))
			} else {
				c.recvOn(sp, partner, tagBase+round, Buffer{})
			}
			sreq.waitFree(sp)
			lo, hi = plo, phi
			round++
		}
	}
	c.rsUnfold(sp, buf, pof2, tagBase+50)
}

// enclosingRange returns the element range shared by newrank and its
// partner at the given mask level, i.e. the range obtained by walking the
// halving tree only for bits strictly above mask.
func enclosingRange(n, pof2, nr, mask int) (lo, hi int) {
	lo, hi = 0, n
	for m := pof2 >> 1; m > mask; m >>= 1 {
		mid := lo + (hi-lo)/2
		if nr&m == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

// barrierRun is the dissemination barrier: ceil(log2 p) rounds of zero-byte
// messages.
func (c *Comm) barrierRun(sp *sim.Proc, tagBase int) {
	p := c.Size()
	round := 0
	for mask := 1; mask < p; mask <<= 1 {
		dst := (c.rank + mask) % p
		src := (c.rank - mask + p) % p
		sreq := c.isendOn(sp, dst, tagBase+round, Buffer{})
		c.recvOn(sp, src, tagBase+round, Buffer{})
		sreq.waitFree(sp)
		round++
	}
}

// ---------------------------------------------------------------------------
// Blocking public API
// ---------------------------------------------------------------------------

// Bcast broadcasts buf from root to every rank of the communicator.
func (c *Comm) Bcast(root int, buf Buffer) {
	tag := c.nextCollTag()
	if c.rank == root {
		c.chargeStaging(c.p.sp, buf.Bytes(), c.p.w.BcastStageFactor)
	} else {
		c.chargeStaging(c.p.sp, 0, 1)
	}
	c.bcastRun(c.p.sp, root, buf, tag)
}

// Reduce combines sendBuf from every rank under op and stores the result in
// recvBuf on root (recvBuf is ignored on other ranks; pass Buffer{}).
func (c *Comm) Reduce(root int, sendBuf, recvBuf Buffer, op Op) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	c.reduceRun(c.p.sp, root, sendBuf, recvBuf, op, tag)
}

// Allreduce combines buf across all ranks in place.
func (c *Comm) Allreduce(buf Buffer, op Op) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, buf.Bytes(), 1)
	c.allreduceRun(c.p.sp, buf, op, tag)
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	c.barrierRun(c.p.sp, c.nextCollTag())
}
