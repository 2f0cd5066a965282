package bench

import (
	"io"

	"commoverlap/internal/core"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sparse"
)

// SparseRow is one bandwidth setting of the sparse-kernel experiment.
type SparseRow struct {
	HalfBW        int
	FillPercent   float64 // nnz(D) / N^2 of the input
	BlockingTime  float64
	PipelinedTime float64
	DenseTime     float64 // dense 2D SUMMA at the same size, for the crossover
}

// Sparse compares the block-sparse SUMMA kernel (blocking vs pipelined
// panel broadcasts) against the dense 2D kernel on a 4x4 mesh as the
// operand bandwidth — and with it the fill — grows. The sparse kernel wins
// while the matrix is genuinely sparse and loses once fill approaches
// dense, the crossover the paper's sparse remark implies.
func Sparse(w io.Writer, n int) ([]SparseRow, error) {
	if n == 0 {
		n = 4000
	}
	const q = 4
	fprintf(w, "Sparse SymmSquareCube on a %dx%d mesh (N=%d, virtual seconds)\n", q, q, n)
	fprintf(w, "%8s %8s %12s %12s %12s\n", "halfBW", "fill%", "blocking", "pipelined", "dense2D")
	var rows []SparseRow

	halfBWs := []int{8, 32, 128}
	// Case 0 is the dense reference; cases 1.. are (halfBW, variant) cells.
	// The banded operand is rebuilt per cell: sparse.CSR is read-only during
	// the run but cheap to construct, and sharing one across replicas would
	// be the only cross-cell state.
	cells, err := parcases(1+len(halfBWs)*2, func(i int) (float64, error) {
		if i == 0 {
			return dense2DTime(q, n)
		}
		hb := halfBWs[(i-1)/2]
		pipelined := (i-1)%2 == 1
		h := sparse.BandedHamiltonian(n, hb, float64(hb)/3)
		var worst float64
		_, err := job(16, 16, nil, func(pr *mpi.Proc) {
			env, err := core.NewSpEnv(pr, q, n, 2, 1, 0)
			if err != nil {
				panic(err)
			}
			blk := spBlockOf(h, q, env.M.I, env.M.J)
			env.M.World.Barrier()
			res := env.SymmSquareCubeSparse(blk, pipelined)
			if res.Time > worst {
				worst = res.Time
			}
		})
		return worst, err
	})
	if err != nil {
		return nil, err
	}
	denseTime := cells[0]
	for hi, hb := range halfBWs {
		h := sparse.BandedHamiltonian(n, hb, float64(hb)/3)
		fill := 100 * float64(h.NNZ()) / (float64(n) * float64(n))
		row := SparseRow{HalfBW: hb, FillPercent: fill,
			BlockingTime: cells[1+2*hi], PipelinedTime: cells[2+2*hi], DenseTime: denseTime}
		rows = append(rows, row)
		fprintf(w, "%8d %8.2f %10.4fs %10.4fs %10.4fs\n",
			hb, fill, row.BlockingTime, row.PipelinedTime, row.DenseTime)
	}
	return rows, nil
}

func dense2DTime(q, n int) (float64, error) {
	var worst float64
	_, err := job(q*q, q*q, nil, func(pr *mpi.Proc) {
		env, err := core.NewEnv2D(pr, q, core.Config{N: n, NDup: 2})
		if err != nil {
			panic(err)
		}
		env.M.World.Barrier()
		res := env.SymmSquareCube2D(nil, true)
		if res.Time > worst {
			worst = res.Time
		}
	})
	return worst, err
}

// spBlockOf extracts block (i,j) of h under the q x q BlockDim partition
// directly from CSR storage (no dense intermediate).
func spBlockOf(h *sparse.CSR, q, i, j int) *sparse.CSR {
	rows := splitDim(h.Rows, q)
	cols := splitDim(h.Cols, q)
	r0, r1 := rows[i], rows[i+1]
	c0, c1 := cols[j], cols[j+1]
	out := sparse.NewEmpty(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		for k := h.RowPtr[r]; k < h.RowPtr[r+1]; k++ {
			c := h.ColIdx[k]
			if c >= c0 && c < c1 {
				out.ColIdx = append(out.ColIdx, c-c0)
				out.Val = append(out.Val, h.Val[k])
			}
		}
		out.RowPtr[r-r0+1] = len(out.ColIdx)
	}
	return out
}

// splitDim returns the q+1 boundaries of the BlockDim partition of n.
func splitDim(n, q int) []int {
	out := make([]int, q+1)
	base, rem := n/q, n%q
	for i := 0; i < q; i++ {
		out[i+1] = out[i] + base
		if i < rem {
			out[i+1]++
		}
	}
	return out
}
