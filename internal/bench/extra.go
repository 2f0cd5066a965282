package bench

import (
	"io"

	"commoverlap/internal/core"
	"commoverlap/internal/mpi"
	"commoverlap/internal/solver"
)

// This file holds experiments beyond the paper's evaluation section:
// the future-work direction the paper names (overlapping the reductions of
// iterative solvers) and an algorithm-family ablation (2D SUMMA vs the 3D
// kernel vs 2.5D/Cannon) that quantifies why the paper's kernel is 3D.

// SolverRow is one rank-count row of the solver experiment.
type SolverRow struct {
	Ranks         int
	StandardTime  float64 // virtual seconds for the fixed iteration budget
	PipelinedTime float64
	Speedup       float64
}

// SolverRanks is the sweep axis.
var SolverRanks = []int{8, 32, 128}

// Solver compares standard CG (two blocking allreduces per iteration)
// against Ghysels–Vanroose pipelined CG (one nonblocking allreduce
// overlapped with the matvec) at a fixed per-rank problem size, so rank
// count raises the reduction latency while local work stays constant —
// the regime the paper's future work targets.
func Solver(w io.Writer) ([]SolverRow, error) {
	const (
		perRank = 200000
		iters   = 20
		halfBW  = 8
	)
	fprintf(w, "Solver: standard vs pipelined CG, %d iterations, %d elements/rank\n", iters, perRank)
	fprintf(w, "%6s %12s %12s %9s\n", "ranks", "standard", "pipelined", "speedup")
	cells, err := parcases(len(SolverRanks)*2, func(i int) (float64, error) {
		ranks := SolverRanks[i/2]
		variant := i % 2
		n := ranks * perRank
		var t float64
		_, err := job(ranks, ranks, nil, func(pr *mpi.Proc) {
			cg, err := solver.New(pr, pr.World(), n, solver.NewStencil(halfBW), false, 1)
			if err != nil {
				panic(err)
			}
			pr.World().Barrier()
			var r solver.Result
			if variant == 0 {
				r = cg.SolveStandard(nil, nil, 0, iters)
			} else {
				r = cg.SolvePipelined(nil, nil, 0, iters)
			}
			if pr.Rank() == 0 {
				t = r.Time
			}
		})
		return t, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SolverRow, 0, len(SolverRanks))
	for ri, ranks := range SolverRanks {
		tStd, tPip := cells[2*ri], cells[2*ri+1]
		row := SolverRow{Ranks: ranks, StandardTime: tStd, PipelinedTime: tPip, Speedup: tStd / tPip}
		rows = append(rows, row)
		fprintf(w, "%6d %10.3fms %10.3fms %9.2f\n", ranks, tStd*1e3, tPip*1e3, row.Speedup)
	}
	return rows, nil
}

// AlgoRow is one row of the algorithm-family comparison.
type AlgoRow struct {
	Name      string
	Ranks     int
	TFlopsND1 float64
	TFlopsND4 float64
}

// Algos compares SymmSquareCube built on 2D SUMMA (8x8), the paper's 3D
// kernel (4x4x4) and 2.5D/Cannon (4x4x4 with c=4) on identical 64-rank,
// one-per-node machines at dimension n (default 1hsg_70) — the
// communication-avoidance ladder the paper's related work describes.
func Algos(w io.Writer, n int) ([]AlgoRow, error) {
	if n == 0 {
		n = Systems[2].N
	}
	fprintf(w, "Algorithm families on 64 ranks (N=%d)\n", n)
	fprintf(w, "%-22s %10s %10s\n", "algorithm", "N_DUP=1", "N_DUP=4")
	var rows []AlgoRow

	summa := func(ndup int) (float64, error) {
		var worst float64
		_, err := job(64, 64, nil, func(pr *mpi.Proc) {
			env, err := core.NewEnv2D(pr, 8, core.Config{N: n, NDup: ndup, PPN: 1})
			if err != nil {
				panic(err)
			}
			env.M.World.Barrier()
			res := env.SymmSquareCube2D(nil, ndup > 1)
			if res.Time > worst {
				worst = res.Time
			}
		})
		return core.KernelFlops(n) / worst / 1e12, err
	}
	cells, err := parcases(6, func(i int) (float64, error) {
		switch i {
		case 0:
			return summa(1)
		case 1:
			return summa(4)
		case 2:
			kr, err := Kernel(core.Baseline, n, 4, 1, 1)
			return kr.TFlops, err
		case 3:
			kr, err := Kernel(core.Optimized, n, 4, 4, 1)
			return kr.TFlops, err
		case 4:
			kr, err := Kernel25(4, 4, n, 1, 1)
			return kr.TFlops, err
		default:
			kr, err := Kernel25(4, 4, n, 4, 1)
			return kr.TFlops, err
		}
	})
	if err != nil {
		return rows, err
	}
	rows = append(rows,
		AlgoRow{Name: "2D SUMMA 8x8", Ranks: 64, TFlopsND1: cells[0], TFlopsND4: cells[1]},
		AlgoRow{Name: "3D kernel 4x4x4", Ranks: 64, TFlopsND1: cells[2], TFlopsND4: cells[3]},
		AlgoRow{Name: "2.5D Cannon 4x4x4", Ranks: 64, TFlopsND1: cells[4], TFlopsND4: cells[5]})

	for _, r := range rows {
		fprintf(w, "%-22s %10.2f %10.2f\n", r.Name, r.TFlopsND1, r.TFlopsND4)
	}
	return rows, nil
}

// ScalingRow is one mesh size of the strong-scaling experiment.
type ScalingRow struct {
	MeshEdge   int
	Ranks      int
	TFlopsND1  float64
	TFlopsND4  float64
	Efficiency float64 // ND4 parallel efficiency vs the smallest mesh
}

// Scaling measures strong scaling of the kernel at fixed N: p^3 ranks on
// p^3 nodes for p in {2,3,4,5,6}, baseline (N_DUP=1) vs overlapped
// (N_DUP=4). The paper fixes 64 nodes; this sweep shows how overlap
// interacts with scale — communication grows relative to compute, so the
// overlap win widens as the mesh grows.
func Scaling(w io.Writer, n int) ([]ScalingRow, error) {
	if n == 0 {
		n = Systems[2].N
	}
	fprintf(w, "Strong scaling at N=%d (one rank per node)\n", n)
	fprintf(w, "%6s %6s %10s %10s %12s\n", "mesh", "ranks", "N_DUP=1", "N_DUP=4", "ND4 eff.")
	var rows []ScalingRow
	meshes := []int{2, 3, 4, 5, 6}
	cells, err := parcases(len(meshes)*2, func(i int) (KernelRun, error) {
		ndup := 1
		if i%2 == 1 {
			ndup = 4
		}
		return Kernel(core.Optimized, n, meshes[i/2], ndup, 1)
	})
	if err != nil {
		return rows, err
	}
	var base float64
	for pi, p := range meshes {
		k1, k4 := cells[2*pi], cells[2*pi+1]
		row := ScalingRow{MeshEdge: p, Ranks: p * p * p, TFlopsND1: k1.TFlops, TFlopsND4: k4.TFlops}
		if base == 0 {
			base = k4.TFlops / float64(row.Ranks)
		}
		row.Efficiency = k4.TFlops / float64(row.Ranks) / base
		rows = append(rows, row)
		fprintf(w, "%3dx%dx%d %6d %10.2f %10.2f %11.0f%%\n",
			p, p, p, row.Ranks, row.TFlopsND1, row.TFlopsND4, 100*row.Efficiency)
	}
	return rows, nil
}
