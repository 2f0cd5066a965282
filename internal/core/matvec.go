package core

import (
	"fmt"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// This file implements the paper's expository example (Section III-A):
// parallel matrix-vector multiplication y = A*x on a p x p process mesh,
// in the plain form (Algorithm 1: row reduce, then column broadcast) and
// the pipelined/overlapped form (Algorithm 2: the vector block is divided
// into N_DUP segments; the diagonal rank re-broadcasts each segment as soon
// as its reduction completes).
//
// Mesh conventions: the paper's P(i,:) "row" communicator (second index
// varies) is mesh.Comms.Col, and its P(:,i) "column" communicator is
// mesh.Comms.Row. Matrix block A_{i,j} lives on process (i,j); x_j is held
// by every process of mesh column j; y is returned in the same distribution.

// MatVec is the per-rank state for the distributed y = A*x kernel.
type MatVec struct {
	P    *mpi.Proc
	M    *mesh.Comms
	Cfg  Config
	a    *mat.Matrix // local block A_{i,j}
	rows mat.BlockDim
	cols mat.BlockDim

	rowDup []*mpi.Comm // N_DUP copies of the paper's row comm (mesh Col)
	colDup []*mpi.Comm // N_DUP copies of the paper's col comm (mesh Row)
}

// NewMatVec builds the kernel for an n x n matrix on a q x q mesh. a is
// this rank's block A_{i,j} (may be nil in phantom mode). Every rank of the
// world must call NewMatVec with the same dims and cfg.
func NewMatVec(p *mpi.Proc, q int, cfg Config, a *mat.Matrix) (*MatVec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PPN == 0 {
		cfg.PPN = 1
	}
	dims := mesh.Dims{Q: q, C: 1}
	m, err := mesh.Build(p.World(), dims)
	if err != nil {
		return nil, err
	}
	mv := &MatVec{P: p, M: m, Cfg: cfg,
		rows: mat.BlockDim{N: cfg.N, P: q},
		cols: mat.BlockDim{N: cfg.N, P: q},
	}
	bi, bj := mv.rows.Count(m.I), mv.cols.Count(m.J)
	if a == nil {
		if cfg.Real {
			return nil, fmt.Errorf("core: real-mode MatVec needs the local block")
		}
		a = mat.NewPhantom(bi, bj)
	}
	if a.Rows != bi || a.Cols != bj {
		return nil, fmt.Errorf("core: block is %dx%d, want %dx%d", a.Rows, a.Cols, bi, bj)
	}
	mv.a = a
	mv.rowDup = m.Col.DupN(cfg.NDup)
	mv.colDup = m.Row.DupN(cfg.NDup)
	return mv, nil
}

// segment returns the c-th of NDup contiguous segments of v (phantom-aware).
func (mv *MatVec) segment(v []float64, elems int, c int) mpi.Buffer {
	bd := mat.BlockDim{N: elems, P: mv.Cfg.NDup}
	lo, n := bd.Offset(c), bd.Count(c)
	if v == nil {
		return mpi.Phantom(int64(n) * 8)
	}
	return mpi.F64(v[lo : lo+n : lo+n])
}

// local computes this rank's partial product y^(j)_i = A_{i,j} * x_j.
func (mv *MatVec) local(x []float64) []float64 {
	bi := mv.rows.Count(mv.M.I)
	var y []float64
	if mv.Cfg.Real {
		y = make([]float64, bi)
		mat.MatVec(mv.a, x, y)
	}
	mv.P.Compute(2*float64(mv.a.Rows)*float64(mv.a.Cols), mv.Cfg.PPN)
	return y
}

// Plain runs Algorithm 1: local multiply, blocking row-comm reduction of
// y_i onto the diagonal rank (i,i), blocking column broadcast of y_i.
// x is this rank's copy of block x_j (nil in phantom mode); the returned
// slice is block y_j in the same distribution (nil in phantom mode).
func (mv *MatVec) Plain(x []float64) []float64 {
	m := mv.M
	ypart := mv.local(x)
	bi := mv.rows.Count(m.I)

	// Reduce y^(j)_i over the mesh row (paper row comm, rank j) to j == i.
	var yi []float64
	recv := mpi.Buffer{}
	if m.J == m.I && mv.Cfg.Real {
		yi = make([]float64, bi)
		recv = mpi.F64(yi)
	} else if m.J == m.I {
		recv = mpi.Phantom(int64(bi) * 8)
	}
	mv.M.Col.Reduce(m.I, mv.vecBuf(ypart, bi), recv, mpi.OpSum)

	// Broadcast y_j down the mesh column (paper col comm, rank i) from the
	// diagonal rank i == j.
	bj := mv.cols.Count(m.J)
	var yout []float64
	if mv.Cfg.Real {
		yout = make([]float64, bj)
		if m.I == m.J {
			copy(yout, yi)
		}
	}
	mv.M.Row.Bcast(m.J, mv.vecBuf(yout, bj))
	return yout
}

// Overlapped runs Algorithm 2: the reductions of the NDup segments are
// posted nonblocking on duplicated row comms; the diagonal rank waits for
// each segment and immediately posts its broadcast on the matching column
// comm, so segment c's broadcast overlaps segment c+1's reduction.
func (mv *MatVec) Overlapped(x []float64) []float64 {
	m := mv.M
	nd := mv.Cfg.NDup
	ypart := mv.local(x)
	bi := mv.rows.Count(m.I)
	bj := mv.cols.Count(m.J)

	var yi []float64
	if mv.Cfg.Real && m.J == m.I {
		yi = make([]float64, bi)
	}
	// Lines 3-5: post the segment reductions.
	reqR := make([]*mpi.Request, nd)
	for c := 0; c < nd; c++ {
		recv := mpi.Buffer{}
		if m.J == m.I {
			recv = mv.segment(yi, bi, c)
			if !mv.Cfg.Real {
				recv = mv.segment(nil, bi, c)
			}
		}
		reqR[c] = mv.rowDup[c].Ireduce(m.I, mv.segment(ypart, bi, c), recv, mpi.OpSum)
	}

	// Lines 6-10: pipeline reduction completion into broadcasts.
	var yout []float64
	if mv.Cfg.Real {
		yout = make([]float64, bj)
	}
	reqB := make([]*mpi.Request, nd)
	if m.I == m.J {
		for c := 0; c < nd; c++ {
			reqR[c].Wait()
			if mv.Cfg.Real {
				seg := mv.segment(yi, bi, c)
				copy(mv.segment(yout, bj, c).Data, seg.Data)
			}
			reqB[c] = mv.colDup[c].Ibcast(m.J, mv.segment(yout, bj, c))
		}
	} else {
		for c := 0; c < nd; c++ {
			reqB[c] = mv.colDup[c].Ibcast(m.J, mv.segment(yout, bj, c))
		}
	}
	// Line 11: drain everything.
	mpi.Waitall(reqB...)
	mpi.Waitall(reqR...)
	return yout
}

func (mv *MatVec) vecBuf(v []float64, elems int) mpi.Buffer {
	if v == nil {
		return mpi.Phantom(int64(elems) * 8)
	}
	return mpi.F64(v)
}
