// Sparse demonstrates the paper's closing remark — applying the overlap
// ideas to the sparse case. It runs the block-sparse SUMMA SymmSquareCube
// on a banded Hamiltonian (verifying against the dense oracle), shows the
// pipelined panel schedule beating the blocking one, and finishes with
// linear-scaling purification: thresholded sparse iteration whose density
// matrix stays sparse.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mat"
	"commoverlap/internal/mpi"
	"commoverlap/internal/purify"
	"commoverlap/internal/simnet"
	"commoverlap/internal/sparse"
)

func main() {
	n := flag.Int("n", 120, "matrix dimension")
	hb := flag.Int("hb", 4, "Hamiltonian half bandwidth")
	q := flag.Int("q", 2, "mesh edge (q x q ranks)")
	flag.Parse()

	h := sparse.BandedHamiltonian(*n, *hb, 1.0) // fast decay: localized density
	fmt.Printf("Hamiltonian: N=%d, half bandwidth %d, fill %.2f%%\n",
		*n, *hb, 100*float64(h.NNZ())/float64(*n**n))

	// Distributed sparse D², D³ vs the dense oracle.
	dense := h.ToDense()
	wantD2, wantD3 := mat.New(*n, *n), mat.New(*n, *n)
	mat.Gemm(1, dense, dense, 0, wantD2)
	mat.Gemm(1, dense, wantD2, 0, wantD3)

	for _, pipelined := range []bool{false, true} {
		d2, d3, elapsed := runKernel(*q, *n, h, pipelined)
		fmt.Printf("sparse kernel (pipelined=%v): %.4fs virtual, |D2-ref|=%.1e |D3-ref|=%.1e\n",
			pipelined, elapsed, d2.MaxAbsDiff(wantD2), d3.MaxAbsDiff(wantD3))
	}

	// Linear-scaling purification.
	ne := *n / 5
	d, st, err := purify.SparseSerial(h, purify.Options{Ne: ne, Tol: 1e-4}, 1e-5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlinear-scaling purification: converged=%v iters=%d trace=%.4f (target %d)\n",
		st.Converged, st.Iters, d.Trace(), ne)
	fmt.Printf("density-matrix fill: %.2f%% (dense would be 100%%)\n",
		100*float64(d.NNZ())/float64(*n**n))
}

func runKernel(q, n int, h *sparse.CSR, pipelined bool) (d2, d3 *sparse.CSR, elapsed float64) {
	gd2 := mat.New(n, n)
	gd3 := mat.New(n, n)
	var mu sync.Mutex
	m := machine.Spec{Config: simnet.DefaultConfig(min(q*q, 8)), Ranks: q * q}
	_, err := m.Run(func(pr *mpi.Proc) {
		env, err := core.NewSpEnv(pr, q, n, 2, 1, 0)
		if err != nil {
			panic(err)
		}
		blk := sparse.FromDense(mat.BlockView(h.ToDense(), q, env.M.I, env.M.J).Clone(), 0)
		env.M.World.Barrier()
		res := env.SymmSquareCubeSparse(blk, pipelined)
		mu.Lock()
		mat.BlockView(gd2, q, env.M.I, env.M.J).CopyFrom(res.D2.ToDense())
		mat.BlockView(gd3, q, env.M.I, env.M.J).CopyFrom(res.D3.ToDense())
		if res.Time > elapsed {
			elapsed = res.Time
		}
		mu.Unlock()
	})
	if err != nil {
		log.Fatal(err)
	}
	return sparse.FromDense(gd2, 0), sparse.FromDense(gd3, 0), elapsed
}
