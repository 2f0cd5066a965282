package commoverlap

// End-to-end integration tests at the module root: the full stack —
// engine, fabric, MPI, mesh, kernel, application — wired exactly the way
// the examples and the README describe, with both numeric and performance
// assertions.

import (
	"sync"
	"testing"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/purify"
	"commoverlap/internal/simnet"
)

// TestEndToEndPurification is the README's promise in executable form:
// build a machine, distribute a Hamiltonian over a 2x2x2 mesh, purify it
// with the paper's optimized kernel, and get the serial answer back with
// the overlapped schedule no slower than the baseline.
func TestEndToEndPurification(t *testing.T) {
	const n, ne, p = 32, 8, 2
	f := mat.BandedHamiltonian(n, 4)
	wantD, wantSt, err := purify.Serial(f, purify.Options{Ne: ne})
	if err != nil || !wantSt.Converged {
		t.Fatalf("serial reference: %v %+v", err, wantSt)
	}

	run := func(v core.Variant, ndup int) (*mat.Matrix, purify.Stats) {
		dims := mesh.Cubic(p)
		var mu sync.Mutex
		got := mat.New(n, n)
		var st purify.Stats
		m := machine.Spec{Config: simnet.DefaultConfig(dims.Size()), Ranks: dims.Size()}
		_, err := m.Run(func(pr *mpi.Proc) {
			env, err := core.NewEnv(pr, dims, core.Config{N: n, NDup: ndup, Real: true})
			if err != nil {
				t.Error(err)
				return
			}
			var fblk *mat.Matrix
			if env.M.K == 0 {
				fblk = mat.BlockView(f, p, env.M.I, env.M.J).Clone()
			}
			dblk, s, err := purify.NewDist(env, v).Run(fblk, purify.Options{Ne: ne})
			if err != nil {
				t.Error(err)
				return
			}
			if env.M.K == 0 {
				mu.Lock()
				mat.BlockView(got, p, env.M.I, env.M.J).CopyFrom(dblk)
				st = s
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}

	for _, tc := range []struct {
		v    core.Variant
		ndup int
	}{
		{core.Original, 1}, {core.Baseline, 1}, {core.Optimized, 4},
	} {
		got, st := run(tc.v, tc.ndup)
		if !st.Converged || st.Iters != wantSt.Iters {
			t.Fatalf("%v: converged=%v iters=%d (serial %d)", tc.v, st.Converged, st.Iters, wantSt.Iters)
		}
		if diff := got.MaxAbsDiff(wantD); diff > 1e-10 {
			t.Errorf("%v: density differs from serial by %g", tc.v, diff)
		}
	}
}

// TestOverlapPaysAtScale asserts the repository's headline on a small
// budget: the optimized kernel with both techniques beats the plain
// baseline by a healthy margin at a communication-bound size.
func TestOverlapPaysAtScale(t *testing.T) {
	measure := func(v core.Variant, p, ndup, ppn int) float64 {
		dims := mesh.Cubic(p)
		var worst float64
		m := machine.Spec{
			Config:    simnet.DefaultConfig(mesh.NodesNeeded(dims.Size(), ppn)),
			Ranks:     dims.Size(),
			Placement: mesh.NaturalPlacement(dims.Size(), ppn),
		}
		_, err := m.Run(func(pr *mpi.Proc) {
			env, err := core.NewEnv(pr, dims, core.Config{N: 4000, NDup: ndup, PPN: ppn})
			if err != nil {
				t.Error(err)
				return
			}
			env.M.World.Barrier()
			res := env.SymmSquareCube(v, nil)
			if res.Time > worst {
				worst = res.Time
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	baseline := measure(core.Baseline, 4, 1, 1)  // 64 nodes, no overlap
	combined := measure(core.Optimized, 8, 4, 8) // 64 nodes, both techniques
	if combined >= baseline {
		t.Fatalf("combined techniques (%.4fs) did not beat the baseline (%.4fs)", combined, baseline)
	}
	if speedup := baseline / combined; speedup < 1.25 {
		t.Errorf("combined speedup only %.2fx, want >= 1.25x", speedup)
	}
}
