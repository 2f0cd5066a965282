package mpi

import "commoverlap/internal/sim"

// This file provides the remaining collective operations — gather,
// scatter, allgather and reduce-scatter — with the classical algorithms
// (binomial trees and rings). SymmSquareCube itself only needs Bcast/
// Reduce/Allreduce/Barrier, but the broadcast and reduction long-message
// paths are built from scatter/allgather schedules, the ML workloads
// (internal/workload) use reduce-scatter and allgather directly, and the
// model checker's scenarios drive gather and scatter.

// gatherRun collects equal-shaped contributions to the root along a
// binomial tree. sendBuf is each rank's block; on the root, recvBufs[i]
// receives rank i's block (recvBufs is ignored elsewhere and may be nil).
func (c *Comm) gatherRun(sp *sim.Proc, root int, sendBuf Buffer, recvBufs []Buffer, tag int) {
	p := c.Size()
	vr := (c.rank - root + p) % p

	// Each subtree owner accumulates the blocks of its subtree in virtual
	// rank order, then forwards them to its parent in one message.
	elems := sendBuf.Len()
	blocks := make([]Buffer, 1, p)
	blocks[0] = sendBuf
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			break
		}
		srcVr := vr | mask
		if srcVr >= p {
			continue
		}
		cnt := min(mask, p-srcVr) // subtree size of the child
		tmp := scratchLike(sendBuf, cnt*elems)
		c.recvOn(sp, c.abs(srcVr, root), tag, tmp)
		for b := 0; b < cnt; b++ {
			blocks = append(blocks, tmp.Slice(b*elems, (b+1)*elems))
		}
	}
	if vr != 0 {
		// Forward my accumulated subtree to the parent as one message.
		agg := concatBuffers(blocks, elems)
		c.sendOn(sp, c.abs(vr-mask, root), tag, agg)
		return
	}
	// Root: blocks[b] is virtual rank b's contribution.
	if recvBufs != nil {
		for b, blk := range blocks {
			r := c.abs(b, root)
			if r < len(recvBufs) {
				recvBufs[r].copyFrom(blk)
			}
		}
	}
}

// concatBuffers packs per-block buffers into one contiguous message.
func concatBuffers(blocks []Buffer, elems int) Buffer {
	if len(blocks) == 1 {
		return blocks[0]
	}
	if blocks[0].IsPhantom() {
		var total int64
		for _, b := range blocks {
			total += b.Bytes()
		}
		return Phantom(total)
	}
	out := make([]float64, 0, len(blocks)*elems)
	for _, b := range blocks {
		out = append(out, b.Data...)
	}
	return F64(out)
}

// scatterRun distributes root's per-rank blocks down a binomial tree.
// sendBufs (root only) holds one block per rank; recvBuf receives this
// rank's block.
func (c *Comm) scatterRun(sp *sim.Proc, root int, sendBufs []Buffer, recvBuf Buffer, tag int) {
	p := c.Size()
	vr := (c.rank - root + p) % p
	elems := recvBuf.Len()

	// The root owns all blocks in virtual-rank order; each subtree owner
	// receives its subtree's blocks from its parent, keeps the first and
	// forwards halves downward.
	var mine []Buffer
	if vr == 0 {
		mine = make([]Buffer, p)
		for b := 0; b < p; b++ {
			mine[b] = sendBufs[c.abs(b, root)]
		}
	} else {
		mask := 1
		for ; mask < p; mask <<= 1 {
			if vr&mask != 0 {
				cnt := min(mask, p-vr)
				tmp := scratchLike(recvBuf, cnt*elems)
				c.recvOn(sp, c.abs(vr-mask, root), tag, tmp)
				mine = make([]Buffer, cnt)
				for b := 0; b < cnt; b++ {
					mine[b] = tmp.Slice(b*elems, (b+1)*elems)
				}
				break
			}
		}
	}
	// Send phase: peel off the top half of my range repeatedly.
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < p && mask < len(mine) {
			cnt := min(mask, len(mine)-mask)
			c.sendOn(sp, c.abs(vr+mask, root), tag, concatBuffers(mine[mask:mask+cnt], elems))
			mine = mine[:mask]
		}
	}
	recvBuf.copyFrom(mine[0])
}

// allgatherRun is the ring allgather: p-1 rounds, each rank forwarding the
// block it received in the previous round. sendBuf is this rank's block;
// recvBufs[i] receives rank i's block on every rank.
func (c *Comm) allgatherRun(sp *sim.Proc, sendBuf Buffer, recvBufs []Buffer, tag int) {
	p := c.Size()
	recvBufs[c.rank].copyFrom(sendBuf)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sendIdx := (c.rank - k + p) % p
		recvIdx := (c.rank - k - 1 + p) % p
		sreq := c.isendOn(sp, right, tag+k, recvBufs[sendIdx])
		c.recvOn(sp, left, tag+k, recvBufs[recvIdx])
		sreq.waitFree(sp)
	}
}

// reduceScatterRun combines equal-shaped contributions and leaves block i
// on rank i, with the ring schedule (the reduce-scatter half of the ring
// allreduce): p-1 rounds in which every rank sends its running partial sum
// of one block to its right neighbor and combines the block arriving from
// the left, so after round p-2 rank r holds the complete sum of block r.
// Per-rank volume is (p-1)/p * n with nearest-neighbor traffic only — the
// shape ZeRO-style gradient sharding wants — and the only storage is one
// pooled clone of the contribution plus one pooled block of receive
// scratch, so steady-state cost is allocation-free (see alloc_budget_test).
func (c *Comm) reduceScatterRun(sp *sim.Proc, sendBuf Buffer, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	elems := recvBuf.Len()
	if p == 1 {
		recvBuf.copyFrom(sendBuf)
		return
	}
	w := c.p.w
	n := sendBuf.Len()
	// block b of the contribution; a short final block (n < p*elems) stays
	// congruent with how the pieces were laid out by the caller.
	block := func(b int) (lo, hi int) { return min(b*elems, n), min(b*elems+elems, n) }
	acc := w.cloneBuf(sendBuf) // running partial sums; sendBuf is read-only
	tmp := w.getScratch(sendBuf, elems)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sb := ((c.rank-k-1)%p + p) % p
		rb := ((c.rank-k-2)%p + p) % p
		slo, shi := block(sb)
		rlo, rhi := block(rb)
		// The sent block and the combined block are disjoint (sb != rb), so
		// combining before the send completes cannot corrupt a rendezvous
		// capture — the same discipline as the ring allreduce.
		sreq := c.isendOn(sp, right, tag+k, acc.Slice(slo, shi))
		c.recvOn(sp, left, tag+k, tmp.Slice(0, rhi-rlo))
		keep := acc.Slice(rlo, rhi)
		c.chargeReduceArith(sp, keep.Bytes())
		combineInto(keep, tmp.Slice(0, rhi-rlo), op)
		sreq.waitFree(sp)
	}
	mlo, mhi := block(c.rank)
	recvBuf.copyFrom(acc.Slice(mlo, mhi))
	w.releaseScratch(tmp)
	w.releaseScratch(acc)
}

// ---------------------------------------------------------------------------
// Public blocking API
// ---------------------------------------------------------------------------

// Gather collects equal-shaped blocks on root: recvBufs[i] (root only)
// receives rank i's sendBuf.
func (c *Comm) Gather(root int, sendBuf Buffer, recvBufs []Buffer) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	c.gatherRun(c.p.sp, root, sendBuf, recvBufs, tag)
}

// Scatter distributes root's blocks: rank i receives sendBufs[i] (root
// only) into recvBuf.
func (c *Comm) Scatter(root int, sendBufs []Buffer, recvBuf Buffer) {
	tag := c.nextCollTag()
	if c.rank == root {
		var total int64
		for _, b := range sendBufs {
			total += b.Bytes()
		}
		c.chargeStaging(c.p.sp, total, c.p.w.BcastStageFactor)
	} else {
		c.chargeStaging(c.p.sp, 0, 1)
	}
	c.scatterRun(c.p.sp, root, sendBufs, recvBuf, tag)
}

// Allgather gives every rank every block: recvBufs[i] receives rank i's
// sendBuf on all ranks.
func (c *Comm) Allgather(sendBuf Buffer, recvBufs []Buffer) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	c.allgatherRun(c.p.sp, sendBuf, recvBufs, tag)
}

// ReduceScatter combines sendBuf (length p * blockLen) across all ranks
// under op and leaves block i in rank i's recvBuf.
func (c *Comm) ReduceScatter(sendBuf, recvBuf Buffer, op Op) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	c.reduceScatterRun(c.p.sp, sendBuf, recvBuf, op, tag)
}

// ---------------------------------------------------------------------------
// Public nonblocking API
// ---------------------------------------------------------------------------

// Iallgather posts a nonblocking Allgather.
func (c *Comm) Iallgather(sendBuf Buffer, recvBufs []Buffer) *Request {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	return c.spawnColl("iallgather", func(sp *sim.Proc) {
		c.allgatherRun(sp, sendBuf, recvBufs, tag)
	})
}

// Ireducescatter posts a nonblocking ReduceScatter.
func (c *Comm) Ireducescatter(sendBuf, recvBuf Buffer, op Op) *Request {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	return c.spawnColl("ireducescatter", func(sp *sim.Proc) {
		c.reduceScatterRun(sp, sendBuf, recvBuf, op, tag)
	})
}
