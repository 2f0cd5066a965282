package core

import (
	"fmt"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// Env25 is the per-rank environment of the 2.5D SymmSquareCube kernel
// (Algorithm 6): a sqrt(P/c) x sqrt(P/c) x c mesh where each of the c
// planes executes q/c steps of Cannon's algorithm over a disjoint range of
// the inner-product index, and the partial results are combined with an
// allreduce (D²) and a reduce (D³) along the grid fibers.
//
// Blocks are zero-padded to a uniform ceil(N/q) edge so that Cannon's
// circular shifts exchange equal-shaped blocks; the per-block embedding
// commutes with multiplication, so results are exact.
type Env25 struct {
	P   *mpi.Proc
	M   *mesh.Comms
	Cfg Config

	GridDup []*mpi.Comm

	// S0 is the padded block edge; Steps is q/c, the Cannon steps per plane.
	S0    int
	Steps int

	// GemmTime accumulates local multiplication time, as in Env.
	GemmTime float64
}

// NewEnv25 builds the 2.5D kernel environment. dims.Q must be a multiple of
// dims.C (each plane advances the same number of Cannon steps). Every rank
// must call NewEnv25 with identical arguments.
func NewEnv25(p *mpi.Proc, dims mesh.Dims, cfg Config) (*Env25, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PPN == 0 {
		cfg.PPN = 1
	}
	if dims.C > dims.Q || dims.Q%dims.C != 0 {
		return nil, fmt.Errorf("core: 2.5D mesh %dx%dx%d needs c <= q and c | q", dims.Q, dims.Q, dims.C)
	}
	m, err := mesh.Build(p.World(), dims)
	if err != nil {
		return nil, err
	}
	e := &Env25{P: p, M: m, Cfg: cfg,
		S0:    (cfg.N + dims.Q - 1) / dims.Q,
		Steps: dims.Q / dims.C,
	}
	e.GridDup = m.Grid.DupN(cfg.NDup)
	return e, nil
}

func (e *Env25) newBlock() *mat.Matrix {
	if e.Cfg.Real {
		return mat.New(e.S0, e.S0)
	}
	return mat.NewPhantom(e.S0, e.S0)
}

func (e *Env25) buf(m *mat.Matrix) mpi.Buffer {
	if m.Phantom() {
		return mpi.Phantom(m.Bytes())
	}
	return mpi.F64(m.Data[:m.Rows*m.Cols])
}

func (e *Env25) bandBuf(m *mat.Matrix, c int) mpi.Buffer {
	bd := mat.BlockDim{N: m.Rows, P: e.Cfg.NDup}
	lo, n := bd.Offset(c), bd.Count(c)
	if m.Phantom() {
		return mpi.Phantom(int64(n) * int64(m.Cols) * 8)
	}
	return mpi.F64(m.Data[lo*m.Cols : (lo+n)*m.Cols])
}

func (e *Env25) gemm(a, b, c *mat.Matrix, accumulate bool) {
	t0 := e.P.Now()
	e.P.Compute(mat.GemmFlops(a.Rows, a.Cols, b.Cols), e.Cfg.PPN)
	beta := 0.0
	if accumulate {
		beta = 1.0
	}
	mat.Gemm(1, a, b, beta, c)
	e.GemmTime += e.P.Now() - t0
}

// shiftInto circularly moves cur within comm: send cur to rank dst, receive
// the incoming block into next. A zero-distance shift is a local copy.
func (e *Env25) shiftInto(comm *mpi.Comm, dst, src, tag int, cur, next *mat.Matrix) {
	if dst == comm.Rank() {
		if src != comm.Rank() {
			panic("core: asymmetric self-shift")
		}
		next.CopyFrom(cur)
		return
	}
	comm.Sendrecv(dst, tag, e.buf(cur), src, tag, e.buf(next))
}

// mod returns x mod q in [0, q).
func mod(x, q int) int {
	r := x % q
	if r < 0 {
		r += q
	}
	return r
}

// cannonPhase computes C += sum over the plane's index range of
// A_{i,t} B_{t,j}, starting from this rank's unskewed blocks a0 and b0.
// It performs the initial alignment for offset t0 = k*steps, then `steps`
// multiply-shift rounds. a0 and b0 are not modified.
func (e *Env25) cannonPhase(a0, b0, c *mat.Matrix, tagBase int) {
	m := e.M
	q := m.Dims.Q
	i, j, k := m.I, m.J, m.K
	t0 := k * e.Steps

	aCur, aNext := e.newBlock(), e.newBlock()
	bCur, bNext := e.newBlock(), e.newBlock()

	// Initial skew: aCur = A_{i, (i+j+t0) mod q}; my a0 = A_{i,j} goes to
	// the column that needs it. The shifts ride the mesh Col comm (rank j)
	// for A and the mesh Row comm (rank i) for B.
	aNeed := mod(i+j+t0, q)
	aDest := mod(j-i-t0, q)
	tmp := aCur
	if aDest == j { // zero shift
		tmp.CopyFrom(a0)
	} else {
		m.Col.Sendrecv(aDest, tagBase, e.buf(a0), aNeed, tagBase, e.buf(tmp))
	}

	bNeed := mod(i+j+t0, q)
	bDest := mod(i-j-t0, q)
	if bDest == i {
		bCur.CopyFrom(b0)
	} else {
		m.Row.Sendrecv(bDest, tagBase+1, e.buf(b0), bNeed, tagBase+1, e.buf(bCur))
	}

	for s := 0; s < e.Steps; s++ {
		e.gemm(aCur, bCur, c, true)
		if s == e.Steps-1 {
			break // no trailing shift
		}
		// Shift A left by one (receive from the right), B up by one.
		e.shiftInto(m.Col, mod(j-1, q), mod(j+1, q), tagBase+2+2*s, aCur, aNext)
		e.shiftInto(m.Row, mod(i-1, q), mod(i+1, q), tagBase+3+2*s, bCur, bNext)
		aCur, aNext = aNext, aCur
		bCur, bNext = bNext, bCur
	}
}

// SymmSquareCube25 runs Algorithm 6. d is this rank's plane-0 block of D in
// the BlockDim distribution (nil off plane 0 or in phantom mode); the
// result blocks come back on plane 0, unpadded, distributed like the input.
func (e *Env25) SymmSquareCube25(d *mat.Matrix) Result {
	start := e.P.Now()
	g0 := e.GemmTime
	m := e.M
	q := m.Dims.Q
	nd := e.Cfg.NDup
	bd := mat.BlockDim{N: e.Cfg.N, P: q}
	bi, bj := bd.Count(m.I), bd.Count(m.J)

	// Step 1: broadcast D_{i,j} (padded) to all planes as both A and B.
	a0 := e.newBlock()
	if m.K == 0 && d != nil && !a0.Phantom() {
		a0.View(0, 0, d.Rows, d.Cols).CopyFrom(d)
	}
	reqs := make([]*mpi.Request, nd)
	for c := 0; c < nd; c++ {
		reqs[c] = e.GridDup[c].Ibcast(0, e.bandBuf(a0, c))
	}
	mpi.Waitall(reqs...)
	b0 := a0 // first multiply squares D

	// Step 2: Cannon partial products for D².
	c2 := e.newBlock()
	c2.Zero()
	e.cannonPhase(a0, b0, c2, 10)

	// Step 3: allreduce the partials along the grid; the result D²_{i,j}
	// becomes the B operand of the second multiplication.
	for c := 0; c < nd; c++ {
		reqs[c] = e.GridDup[c].Iallreduce(e.bandBuf(c2, c), mpi.OpSum)
	}
	mpi.Waitall(reqs...)
	d2pad := c2

	// Step 4: Cannon partial products for D³ = D * D².
	c3 := e.newBlock()
	c3.Zero()
	e.cannonPhase(a0, d2pad, c3, 100)

	// Step 5: reduce D³ onto plane 0.
	var d3pad *mat.Matrix
	for c := 0; c < nd; c++ {
		recv := mpi.Buffer{}
		if m.K == 0 {
			if d3pad == nil {
				d3pad = e.newBlock()
			}
			recv = e.bandBuf(d3pad, c)
		}
		reqs[c] = e.GridDup[c].Ireduce(0, e.bandBuf(c3, c), recv, mpi.OpSum)
	}
	mpi.Waitall(reqs...)

	res := Result{Time: e.P.Now() - start, GemmTime: e.GemmTime - g0}
	if m.K == 0 {
		res.D2 = e.unpad(d2pad, bi, bj)
		res.D3 = e.unpad(d3pad, bi, bj)
	}
	return res
}

func (e *Env25) unpad(padded *mat.Matrix, rows, cols int) *mat.Matrix {
	if padded.Phantom() {
		return mat.NewPhantom(rows, cols)
	}
	out := mat.New(rows, cols)
	out.CopyFrom(padded.View(0, 0, rows, cols))
	return out
}
