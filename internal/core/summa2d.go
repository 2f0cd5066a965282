package core

import (
	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// Env2D is a 2D SUMMA implementation of SymmSquareCube, the baseline
// algorithm class the paper's related work starts from (van de Geijn &
// Watts). It exists as a comparator: 2D algorithms move O(N²/√P) words per
// rank versus the 3D kernel's O(N²/P^(2/3)), so on the simulated machine
// the 3D variants win at scale exactly as the literature predicts — an
// ablation the benchmarks expose.
//
// Two schedules are provided: plain blocking SUMMA, and a pipelined SUMMA
// that prefetches panel t+1 with nonblocking broadcasts on duplicated
// communicators (cycling over NDup of them) while panel t multiplies —
// the paper's overlap idea applied to the 2D algorithm's panel loop.
type Env2D struct {
	P   *mpi.Proc
	M   *mesh.Comms
	Cfg Config

	RowDup, ColDup []*mpi.Comm

	// GemmTime accumulates local multiplication time, as in Env.
	GemmTime float64
}

// NewEnv2D builds the q x q SUMMA environment. Every rank of the world
// must call it with identical arguments.
func NewEnv2D(p *mpi.Proc, q int, cfg Config) (*Env2D, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PPN == 0 {
		cfg.PPN = 1
	}
	m, err := mesh.Build(p.World(), mesh.Dims{Q: q, C: 1})
	if err != nil {
		return nil, err
	}
	e := &Env2D{P: p, M: m, Cfg: cfg}
	e.RowDup = m.Row.DupN(cfg.NDup)
	e.ColDup = m.Col.DupN(cfg.NDup)
	return e, nil
}

func (e *Env2D) newBlock(r, c int) *mat.Matrix {
	if e.Cfg.Real {
		return mat.New(r, c)
	}
	return mat.NewPhantom(r, c)
}

func (e *Env2D) buf(m *mat.Matrix) mpi.Buffer {
	if m.Phantom() {
		return mpi.Phantom(m.Bytes())
	}
	return mpi.F64(m.Data[:m.Rows*m.Cols])
}

func (e *Env2D) gemm(a, b, c *mat.Matrix) {
	t0 := e.P.Now()
	e.P.Compute(mat.GemmFlops(a.Rows, a.Cols, b.Cols), e.Cfg.PPN)
	mat.Gemm(1, a, b, 1, c)
	e.GemmTime += e.P.Now() - t0
}

// summa computes C += A x B where this rank holds block aBlk of A and
// bBlk of B in the q x q block distribution. Panel t's A column travels
// along mesh rows (Col comm, root t) and its B row along mesh columns
// (Row comm, root t).
func (e *Env2D) summa(aBlk, bBlk, c *mat.Matrix, pipelined bool) {
	m := e.M
	q := m.Dims.Q
	bd := e.blocks()
	bi, bj := bd.Count(m.I), bd.Count(m.J)
	nd := e.Cfg.NDup

	makeA := func(t int) *mat.Matrix {
		ap := e.newBlock(bi, bd.Count(t))
		if m.J == t {
			ap.CopyFrom(aBlk)
		}
		return ap
	}
	makeB := func(t int) *mat.Matrix {
		bp := e.newBlock(bd.Count(t), bj)
		if m.I == t {
			bp.CopyFrom(bBlk)
		}
		return bp
	}

	if !pipelined {
		for t := 0; t < q; t++ {
			ap, bp := makeA(t), makeB(t)
			m.Col.Bcast(t, e.buf(ap))
			m.Row.Bcast(t, e.buf(bp))
			e.gemm(ap, bp, c)
		}
		return
	}

	// Pipelined: panel t+1's broadcasts are in flight while panel t
	// multiplies; duplicated communicators isolate outstanding panels.
	aps := make([]*mat.Matrix, q)
	bps := make([]*mat.Matrix, q)
	reqA := make([]*mpi.Request, q)
	reqB := make([]*mpi.Request, q)
	post := func(t int) {
		aps[t], bps[t] = makeA(t), makeB(t)
		reqA[t] = e.ColDup[t%nd].Ibcast(t, e.buf(aps[t]))
		reqB[t] = e.RowDup[t%nd].Ibcast(t, e.buf(bps[t]))
	}
	post(0)
	for t := 0; t < q; t++ {
		if t+1 < q {
			post(t + 1)
		}
		reqA[t].Wait()
		reqB[t].Wait()
		e.gemm(aps[t], bps[t], c)
	}
}

func (e *Env2D) blocks() mat.BlockDim {
	return mat.BlockDim{N: e.Cfg.N, P: e.M.Dims.Q}
}

// SymmSquareCube2D computes D² and D³ with two SUMMA multiplications.
// d is this rank's block D_{i,j}; the results come back in the same
// distribution on every rank (there is no third mesh dimension to fold).
// pipelined selects the overlapped panel schedule.
func (e *Env2D) SymmSquareCube2D(d *mat.Matrix, pipelined bool) Result {
	start := e.P.Now()
	g0 := e.GemmTime
	bd := e.blocks()
	bi, bj := bd.Count(e.M.I), bd.Count(e.M.J)

	dBlk := d
	if dBlk == nil {
		dBlk = e.newBlock(bi, bj)
	}
	d2 := e.newBlock(bi, bj)
	d2.Zero()
	e.summa(dBlk, dBlk, d2, pipelined)
	d3 := e.newBlock(bi, bj)
	d3.Zero()
	e.summa(dBlk, d2, d3, pipelined)

	return Result{
		D2:       d2,
		D3:       d3,
		Time:     e.P.Now() - start,
		GemmTime: e.GemmTime - g0,
	}
}
