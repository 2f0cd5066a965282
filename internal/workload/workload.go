// Package workload expresses the communication skeletons of distributed
// ML training on the simulator's MPI layer, so the paper's comm/comm
// overlap machinery (N_DUP duplicated communicators, parked-PPN ranks) can
// be measured against the patterns that dominate multi-accelerator
// clusters today:
//
//   - DataParallel: bucketed gradient allreduce overlapping a simulated
//     backward pass — the bucket ready last is reduced first, exactly the
//     reversed-order overlap every DDP implementation uses.
//   - ZeRO: the sharded-optimizer step — reduce-scatter the gradient so
//     every rank owns one shard, run the optimizer on the shard, then
//     all-gather the updated parameters.
//   - Pipeline: pipeline-parallel microbatching over a stage chain, with
//     the warmup/steady/drain wavefront emerging from the chain
//     dependency; activations can be chunked across duplicated
//     communicators so their transfers overlap each other.
//
// Every pattern carries its own exact small-integer oracle: payload values
// are tiny integers (sums stay exact in float64 regardless of association
// order), each rank verifies its final buffers against the closed form,
// and the FNV-64a checksum over the result bits is byte-deterministic —
// the blocking and overlapped variants of a pattern must agree.
package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/simnet"
)

// Pattern names one ML-training communication pattern.
type Pattern string

const (
	DataParallel Pattern = "dp"
	ZeRO         Pattern = "zero"
	Pipeline     Pattern = "pipeline"
)

// AcceleratorConfig is the accelerator-flavored machine preset: an
// accelerator node does dense arithmetic two orders of magnitude faster
// than the paper's CPU nodes, talks to the fabric through a fat NIC in
// chunky transfers, and moves intra-node traffic over an NVLink-like bus
// (the hier topology's shared uplinks then model the inter-node
// oversubscription such clusters have). Everything else inherits the
// calibrated defaults.
func AcceleratorConfig(nodes int) simnet.Config {
	cfg := simnet.DefaultConfig(nodes)
	cfg.WireBandwidth = 25e9 // 200 Gb/s-class NIC per direction
	cfg.CPUCopyRate = 20e9
	cfg.DMARate = 22e9
	cfg.ChunkBytes = 1 << 20 // chunky transfers: fewer, fatter chunks
	cfg.ShmBandwidth = 150e9 // NVLink-like intra-node bus
	cfg.ShmLatency = 0.3e-6
	cfg.ReduceRate = 30e9 // reductions run on the accelerator
	cfg.StageRate = 60e9
	cfg.NodeFlops = 100e12
	return cfg
}

// Spec describes one workload run.
type Spec struct {
	Pattern   Pattern
	Nodes     int
	LaunchPPN int // ranks launched per node; the job size is Nodes*LaunchPPN
	// PPN is the number of active ranks per node; surplus launched ranks
	// park on an Ibarrier poll loop (the paper's per-kernel PPN mechanism).
	// 0 means all launched ranks are active.
	PPN int
	// NDup is the number of duplicated communicators the overlapped
	// variants spread their collectives (or activation chunks) across.
	NDup int
	// Units is the number of gradient buckets (dp), optimizer shards
	// (zero) or microbatches (pipeline).
	Units int
	// Elems is the float64 length of one unit's full vector: a gradient
	// bucket, one shard-step's full gradient, or one activation.
	Elems int
	// Overlap selects the overlapped schedule (nonblocking collectives on
	// duplicated communicators riding under compute) over the blocking
	// compute-then-communicate one.
	Overlap bool
	// Alg forces a collective algorithm where the pattern's collective has
	// a family (dp's allreduce); empty keeps switch-point auto selection.
	Alg string
	// Progress selects the asynchronous progress engine (progress.Parse
	// labels: "" off, "rankN" agents per node out of the launched lanes,
	// "dma" the per-node offload engine). Rank-mode agents must fit in the
	// parked lanes: PPN + N <= LaunchPPN.
	Progress string
	// Topo names the fabric (simnet.TopoByName); empty is flat.
	Topo string
	// FlopsPerUnit is the simulated compute per unit per rank (backward
	// pass for a bucket, optimizer step for a shard, stage forward/backward
	// for a microbatch). 0 picks a default sized so compute and one unit's
	// communication are comparable — the regime where overlap pays.
	FlopsPerUnit float64
	// Config overrides the machine preset (nil = AcceleratorConfig(Nodes)).
	// Topo is still applied on top.
	Config *simnet.Config
}

func (s Spec) withDefaults() Spec {
	if s.LaunchPPN == 0 {
		s.LaunchPPN = 1
	}
	if s.PPN == 0 {
		s.PPN = s.LaunchPPN
	}
	if s.NDup == 0 {
		s.NDup = 1
	}
	if s.Units == 0 {
		s.Units = 4
	}
	if s.Elems == 0 {
		s.Elems = 1 << 17 // 1 MiB units
	}
	if s.FlopsPerUnit == 0 {
		// Balance compute against one unit's transfer on the accelerator
		// preset: comm time ~ unit bytes / NIC rate, compute rate ~
		// NodeFlops shared by the active lanes.
		acc := AcceleratorConfig(1)
		commT := float64(8*s.Elems) / acc.WireBandwidth
		s.FlopsPerUnit = commT * acc.NodeFlops / float64(s.PPN)
	}
	return s
}

func (s Spec) validate() error {
	switch s.Pattern {
	case DataParallel, ZeRO, Pipeline:
	default:
		return fmt.Errorf("workload: unknown pattern %q", s.Pattern)
	}
	if s.Nodes < 1 {
		return fmt.Errorf("workload: nodes %d", s.Nodes)
	}
	if s.PPN > s.LaunchPPN {
		return fmt.Errorf("workload: PPN %d exceeds launch PPN %d", s.PPN, s.LaunchPPN)
	}
	if s.NDup < 1 || s.Units < 1 || s.Elems < 1 {
		return fmt.Errorf("workload: ndup=%d units=%d elems=%d", s.NDup, s.Units, s.Elems)
	}
	sp, err := progress.Parse(s.Progress)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if s.PPN+sp.LanesNeeded() > s.LaunchPPN {
		return fmt.Errorf("workload: PPN %d + %d progress lanes exceed launch PPN %d",
			s.PPN, sp.LanesNeeded(), s.LaunchPPN)
	}
	return nil
}

// RankResult is what one rank reports from RunRank.
type RankResult struct {
	Checksum uint64  // FNV-64a over the rank's final result bits
	Elapsed  float64 // seconds inside the active section (0 if parked)
	Active   bool
}

// Result summarizes one workload run.
type Result struct {
	Elapsed  float64 // max active-section time across ranks
	Bytes    int64   // payload volume moved, per-pattern convention
	Checksum uint64  // rank-ordered fold of every rank's checksum
}

// Goodput is the pattern's payload volume over the slowest rank's
// active-section time, in bytes/s.
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed
}

// Run builds a machine from the spec's preset, launches Nodes*LaunchPPN
// ranks with natural placement, runs the pattern on every rank and folds
// the per-rank results. The run is fully deterministic: same spec, same
// Result, byte for byte.
func Run(s Spec) (Result, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	cfg := AcceleratorConfig(s.Nodes)
	if s.Config != nil {
		cfg = *s.Config
		cfg.Nodes = s.Nodes
	}
	ranks := s.Nodes * s.LaunchPPN
	m := machine.Spec{
		Config:       cfg,
		Topo:         s.Topo,
		Ranks:        ranks,
		Placement:    mesh.NaturalPlacement(ranks, s.LaunchPPN),
		Progress:     progress.MustParse(s.Progress), // validated above
		AllreduceAlg: s.Alg,
	}
	var firstErr error
	rrs := make([]RankResult, ranks)
	w, err := m.Run(func(p *mpi.Proc) {
		rr, err := RunRank(p, s)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		rrs[p.Rank()] = rr
	})
	if err != nil {
		return Result{}, err
	}
	if err := w.CheckClean(); err != nil {
		return Result{}, err
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	res := Result{Bytes: workBytes(s)}
	h := fnv.New64a()
	var b [8]byte
	for _, rr := range rrs {
		if rr.Elapsed > res.Elapsed {
			res.Elapsed = rr.Elapsed
		}
		binary.LittleEndian.PutUint64(b[:], rr.Checksum)
		h.Write(b[:])
	}
	res.Checksum = h.Sum64()
	return res, nil
}

// workBytes is the payload volume charged for goodput. The collective
// patterns use the paper's 2(p-1)/p convention over the total payload; the
// pipeline charges each stage-boundary crossing, forward and backward.
func workBytes(s Spec) int64 {
	p := int64(s.Nodes * s.PPN)
	total := int64(s.Units) * int64(s.Elems) * 8
	if p < 2 {
		return total
	}
	if s.Pattern == Pipeline {
		return 2 * (p - 1) * total
	}
	return 2 * (p - 1) * total / p
}

// RunRank is the per-rank entry point: it splits the active communicator
// (lane < PPN on each node), parks the surplus ranks on the paper's
// Ibarrier poll loop, and runs the pattern body on the active ranks. It is
// exported so checker scenarios can drive the exact production code path
// under the full invariant battery. Every rank of the world must call it.
func RunRank(p *mpi.Proc, s Spec) (RankResult, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return RankResult{}, err
	}
	lane := p.Rank() % s.LaunchPPN
	active := lane < s.PPN
	color := -1
	if active {
		color = 0
	}
	act := p.World().Split(color, p.Rank())
	var rr RankResult
	var err error
	mpi.RunActive(p, p.World(), active, 1e-4, func() {
		t0 := p.Now()
		var chk uint64
		switch s.Pattern {
		case DataParallel:
			chk, err = runDataParallel(p, act, s)
		case ZeRO:
			chk, err = runZeRO(p, act, s)
		default:
			chk, err = runPipeline(p, act, s)
		}
		rr = RankResult{Checksum: chk, Elapsed: p.Now() - t0, Active: true}
	})
	return rr, err
}

// val is the exact small-integer payload: products and sums of these stay
// exact in float64 for any rank count this simulator runs, so oracles are
// schedule-independent.
func val(rank, unit, i int) float64 {
	return float64((rank + 1) * ((unit+i)%7 + 1))
}

// sumVal is the sum of val over ranks 0..p-1.
func sumVal(p, unit, i int) float64 {
	return float64(p*(p+1)/2) * float64((unit+i)%7+1)
}

// fnvHash is an inline FNV-64a so checksumming a buffer does not allocate
// per element.
type fnvHash struct {
	sum uint64
}

func newFNV() *fnvHash { return &fnvHash{sum: 14695981039346656037} }

func (h *fnvHash) addFloat(v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h.sum ^= uint64(byte(bits >> (8 * i)))
		h.sum *= 1099511628211
	}
}

func (h *fnvHash) addFloats(vs []float64) {
	for _, v := range vs {
		h.addFloat(v)
	}
}

// runDataParallel is the bucketed-gradient allreduce: the backward pass
// produces gradient buckets last-layer-first; the overlapped variant posts
// each bucket's Iallreduce on a round-robin duplicated communicator the
// moment its compute finishes, so reductions ride under the remaining
// backward compute and under each other; the blocking variant finishes the
// whole backward pass and then reduces bucket by bucket.
func runDataParallel(p *mpi.Proc, c *mpi.Comm, s Spec) (uint64, error) {
	P := c.Size()
	grads := make([][]float64, s.Units)
	for u := range grads {
		g := make([]float64, s.Elems)
		for i := range g {
			g[i] = val(c.Rank(), u, i)
		}
		grads[u] = g
	}
	if s.Overlap {
		dups := c.DupN(s.NDup)
		reqs := make([]*mpi.Request, s.Units)
		for k := 0; k < s.Units; k++ {
			u := s.Units - 1 - k // bucket ready order: last layer first
			p.Compute(s.FlopsPerUnit, s.PPN)
			reqs[u] = dups[k%s.NDup].Iallreduce(mpi.F64(grads[u]), mpi.OpSum)
		}
		mpi.Waitall(reqs...)
	} else {
		for k := 0; k < s.Units; k++ {
			p.Compute(s.FlopsPerUnit, s.PPN)
		}
		for k := 0; k < s.Units; k++ {
			c.Allreduce(mpi.F64(grads[s.Units-1-k]), mpi.OpSum)
		}
	}
	h := newFNV()
	for u := range grads {
		for i, v := range grads[u] {
			if want := sumVal(P, u, i); v != want {
				return 0, fmt.Errorf("dp: rank %d bucket %d elem %d = %g, want %g",
					c.Rank(), u, i, v, want)
			}
		}
		h.addFloats(grads[u])
	}
	return h.sum, nil
}

// runZeRO is the sharded-optimizer step: per shard-group, reduce-scatter
// the full gradient so each rank owns one shard of the sum, run the
// optimizer on the owned shard (modeled as compute plus an exact halving
// update), then all-gather the updated parameters. The overlapped variant
// posts every reduce-scatter up front on round-robin duplicated
// communicators and pipelines optimizer compute and all-gathers behind
// them; the blocking variant runs each shard-group's three phases
// serially.
func runZeRO(p *mpi.Proc, c *mpi.Comm, s Spec) (uint64, error) {
	P := c.Size()
	shardElems := (s.Elems + P - 1) / P
	n := P * shardElems // pad to an exact shard multiple
	grads := make([][]float64, s.Units)
	shards := make([][]float64, s.Units)
	params := make([][]float64, s.Units)
	for u := range grads {
		g := make([]float64, n)
		for i := range g {
			g[i] = val(c.Rank(), u, i)
		}
		grads[u] = g
		shards[u] = make([]float64, shardElems)
		params[u] = make([]float64, n)
	}
	paramBufs := func(u int) []mpi.Buffer {
		bufs := make([]mpi.Buffer, P)
		for r := 0; r < P; r++ {
			bufs[r] = mpi.F64(params[u][r*shardElems : (r+1)*shardElems])
		}
		return bufs
	}
	optimizer := func(u int) {
		p.Compute(s.FlopsPerUnit, s.PPN)
		for i := range shards[u] {
			shards[u][i] *= 0.5 // exact in float64
		}
	}
	if s.Overlap {
		dups := c.DupN(s.NDup)
		rs := make([]*mpi.Request, s.Units)
		for u := range rs {
			rs[u] = dups[u%s.NDup].Ireducescatter(mpi.F64(grads[u]), mpi.F64(shards[u]), mpi.OpSum)
		}
		ag := make([]*mpi.Request, s.Units)
		for u := range ag {
			rs[u].Wait()
			optimizer(u)
			ag[u] = dups[u%s.NDup].Iallgather(mpi.F64(shards[u]), paramBufs(u))
		}
		mpi.Waitall(ag...)
	} else {
		for u := 0; u < s.Units; u++ {
			c.ReduceScatter(mpi.F64(grads[u]), mpi.F64(shards[u]), mpi.OpSum)
			optimizer(u)
			c.Allgather(mpi.F64(shards[u]), paramBufs(u))
		}
	}
	h := newFNV()
	for u := range params {
		for i, v := range params[u] {
			if want := 0.5 * sumVal(P, u, i); v != want {
				return 0, fmt.Errorf("zero: rank %d shard-group %d elem %d = %g, want %g",
					c.Rank(), u, i, v, want)
			}
		}
		h.addFloats(params[u])
	}
	return h.sum, nil
}

// runPipeline is pipeline-parallel microbatching over the active ranks as
// a stage chain: a forward wavefront carries each microbatch's activation
// down the chain (each stage adds 1, an exact transform), then a backward
// wavefront carries gradients back up. The warmup/steady/drain phases
// emerge from the chain dependency. The overlapped variant chunks each
// activation across the duplicated communicators, pre-posts all receives,
// and leaves sends in flight until the phase drains; the blocking variant
// moves whole activations with blocking Send/Recv, strictly serially per
// microbatch.
func runPipeline(p *mpi.Proc, c *mpi.Comm, s Spec) (uint64, error) {
	P := c.Size()
	r := c.Rank()
	acts := make([][]float64, s.Units)
	for m := range acts {
		acts[m] = make([]float64, s.Elems)
		if r == 0 {
			for i := range acts[m] {
				acts[m][i] = float64((m+i)%7 + 1)
			}
		}
	}
	grads := make([][]float64, s.Units)
	for m := range grads {
		grads[m] = make([]float64, s.Elems)
	}

	// sweep runs one wavefront direction: recv from src (if any), compute
	// and transform, send to dst (if any), for every microbatch in order.
	sweep := func(bufs [][]float64, src, dst int, tagBase int) {
		if s.Overlap {
			dups := c.DupN(s.NDup)
			chunk := (s.Elems + s.NDup - 1) / s.NDup
			post := func(m int, recv bool, peer int) []*mpi.Request {
				var reqs []*mpi.Request
				for d := 0; d < s.NDup; d++ {
					lo := d * chunk
					hi := min(lo+chunk, s.Elems)
					if lo >= hi {
						break
					}
					b := mpi.F64(bufs[m][lo:hi])
					if recv {
						reqs = append(reqs, dups[d].Irecv(peer, tagBase+m, b))
					} else {
						reqs = append(reqs, dups[d].Isend(peer, tagBase+m, b))
					}
				}
				return reqs
			}
			// Pre-post every microbatch's chunk receives: arrivals for
			// microbatch m+1 overlap the compute and sends of m.
			recvs := make([][]*mpi.Request, s.Units)
			if src >= 0 {
				for m := range recvs {
					recvs[m] = post(m, true, src)
				}
			}
			var sends []*mpi.Request
			for m := 0; m < s.Units; m++ {
				if src >= 0 {
					mpi.Waitall(recvs[m]...)
				}
				p.Compute(s.FlopsPerUnit, s.PPN)
				for i := range bufs[m] {
					bufs[m][i]++
				}
				if dst >= 0 {
					sends = append(sends, post(m, false, dst)...)
				}
			}
			mpi.Waitall(sends...)
			return
		}
		for m := 0; m < s.Units; m++ {
			if src >= 0 {
				c.Recv(src, tagBase+m, mpi.F64(bufs[m]))
			}
			p.Compute(s.FlopsPerUnit, s.PPN)
			for i := range bufs[m] {
				bufs[m][i]++
			}
			if dst >= 0 {
				c.Send(dst, tagBase+m, mpi.F64(bufs[m]))
			}
		}
	}

	prev, next := r-1, r+1
	if next >= P {
		next = -1
	}
	sweep(acts, prev, next, 0)
	// The last stage seeds the backward pass with its forward output.
	if r == P-1 {
		for m := range grads {
			copy(grads[m], acts[m])
		}
	}
	// Backward: the chain reverses; tags continue past the forward block.
	bsrc, bdst := r+1, r-1
	if bsrc >= P {
		bsrc = -1
	}
	sweep(grads, bsrc, bdst, s.Units)

	// Oracle: after the forward sweep, stage r has applied r+1 increments;
	// the backward sweep seeds with the last stage's output (base + P) and
	// applies P-r further increments by the time stage r is done.
	h := newFNV()
	for m := range acts {
		base := func(i int) float64 { return float64((m+i)%7 + 1) }
		for i, v := range acts[m] {
			if want := base(i) + float64(r+1); v != want {
				return 0, fmt.Errorf("pipeline: stage %d microbatch %d fwd elem %d = %g, want %g",
					r, m, i, v, want)
			}
		}
		for i, v := range grads[m] {
			if want := base(i) + float64(P) + float64(P-r); v != want {
				return 0, fmt.Errorf("pipeline: stage %d microbatch %d bwd elem %d = %g, want %g",
					r, m, i, v, want)
			}
		}
		h.addFloats(acts[m])
		h.addFloats(grads[m])
	}
	return h.sum, nil
}
