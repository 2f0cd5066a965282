// Solver demonstrates the paper's future-work direction (Section VI):
// overlapping the global reductions of an iterative solver with its other
// work. It solves a banded SPD system with standard CG (two blocking
// allreduces per iteration) and with Ghysels–Vanroose pipelined CG (one
// nonblocking allreduce hidden under the matvec), verifying that both
// produce the same solution and comparing virtual-time cost as the rank
// count — and with it the reduction latency — grows.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"commoverlap/internal/machine"
	"commoverlap/internal/mat"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
	"commoverlap/internal/solver"
)

func main() {
	n := flag.Int("n", 400, "system size for the correctness pass")
	hb := flag.Int("hb", 2, "half bandwidth of the operator")
	flag.Parse()

	// Correctness pass: real arithmetic on 4 ranks.
	stencil := solver.NewStencil(*hb)
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, *n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, pipelined := range []bool{false, true} {
		res, x := solveReal(4, *n, stencil, b, pipelined)
		// Verify against a serial application of the operator.
		worst := residual(*n, stencil, x, b)
		name := "standard "
		if pipelined {
			name = "pipelined"
		}
		fmt.Printf("%s CG: converged=%v iters=%d relres=%.1e  max|Ax-b|=%.1e\n",
			name, res.Converged, res.Iters, res.RelRes, worst)
	}

	// Scaling pass: phantom payloads, fixed work per rank.
	fmt.Printf("\nlatency-bound scaling (20 iterations, 200k elements/rank, virtual time):\n")
	fmt.Printf("%6s %12s %12s %9s\n", "ranks", "standard", "pipelined", "speedup")
	for _, ranks := range []int{4, 16, 64} {
		tStd := solvePhantom(ranks, false)
		tPip := solvePhantom(ranks, true)
		fmt.Printf("%6d %10.3fms %10.3fms %9.2f\n", ranks, tStd*1e3, tPip*1e3, tStd/tPip)
	}
}

func solveReal(ranks, n int, stencil, b []float64, pipelined bool) (solver.Result, []float64) {
	bd := mat.BlockDim{N: n, P: ranks}
	x := make([]float64, n)
	var res solver.Result
	m := machine.Spec{Config: simnet.DefaultConfig(4), Ranks: ranks}
	_, err := m.Run(func(pr *mpi.Proc) {
		cg, err := solver.New(pr, pr.World(), n, stencil, true, 1)
		if err != nil {
			panic(err)
		}
		lo, cnt := bd.Offset(pr.Rank()), bd.Count(pr.Rank())
		bloc := make([]float64, cnt)
		copy(bloc, b[lo:lo+cnt])
		xloc := make([]float64, cnt)
		var r solver.Result
		if pipelined {
			r = cg.SolvePipelined(bloc, xloc, 1e-10, 1000)
		} else {
			r = cg.SolveStandard(bloc, xloc, 1e-10, 1000)
		}
		copy(x[lo:lo+cnt], xloc)
		if pr.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return res, x
}

func solvePhantom(ranks int, pipelined bool) float64 {
	var out float64
	m := machine.Spec{Config: simnet.DefaultConfig(ranks), Ranks: ranks}
	_, err := m.Run(func(pr *mpi.Proc) {
		cg, err := solver.New(pr, pr.World(), ranks*200000, solver.NewStencil(8), false, 1)
		if err != nil {
			panic(err)
		}
		pr.World().Barrier()
		var r solver.Result
		if pipelined {
			r = cg.SolvePipelined(nil, nil, 0, 20)
		} else {
			r = cg.SolveStandard(nil, nil, 0, 20)
		}
		if pr.Rank() == 0 {
			out = r.Time
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func residual(n int, stencil, x, b []float64) float64 {
	hb := len(stencil) - 1
	worst := 0.0
	for i := 0; i < n; i++ {
		s := stencil[0] * x[i]
		for d := 1; d <= hb; d++ {
			if i-d >= 0 {
				s += stencil[d] * x[i-d]
			}
			if i+d < n {
				s += stencil[d] * x[i+d]
			}
		}
		if diff := abs(s - b[i]); diff > worst {
			worst = diff
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
