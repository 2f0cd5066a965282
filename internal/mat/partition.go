package mat

import "fmt"

// BlockDim describes the 1-D partition of n items into p nearly equal
// contiguous blocks: the first n%p blocks get one extra item, matching the
// convention used by the paper's GTFock kernel and by MPI vector collectives.
type BlockDim struct {
	N, P int
}

// Count returns the size of block i.
func (b BlockDim) Count(i int) int {
	b.checkIdx(i)
	q, r := b.N/b.P, b.N%b.P
	if i < r {
		return q + 1
	}
	return q
}

// Offset returns the start index of block i.
func (b BlockDim) Offset(i int) int {
	b.checkIdx(i)
	q, r := b.N/b.P, b.N%b.P
	if i < r {
		return i * (q + 1)
	}
	return r*(q+1) + (i-r)*q
}

// MaxCount returns the largest block size (ceil(n/p)).
func (b BlockDim) MaxCount() int {
	if b.N%b.P == 0 {
		return b.N / b.P
	}
	return b.N/b.P + 1
}

func (b BlockDim) checkIdx(i int) {
	if b.P <= 0 {
		panic("mat: BlockDim with P <= 0")
	}
	if i < 0 || i >= b.P {
		panic(fmt.Sprintf("mat: block %d out of [0,%d)", i, b.P))
	}
}

// BlockView returns the (bi, bj) block of m under a p x p 2-D partition of
// its rows and columns, as a view sharing storage.
func BlockView(m *Matrix, p, bi, bj int) *Matrix {
	br := BlockDim{N: m.Rows, P: p}
	bc := BlockDim{N: m.Cols, P: p}
	return m.View(br.Offset(bi), bc.Offset(bj), br.Count(bi), bc.Count(bj))
}
