// Purification runs the paper's application: computing the density matrix
// of a synthetic Hamiltonian by canonical purification, where every
// iteration's D² and D³ come from a distributed matrix-multiplication
// engine. It compares the paper's three 3D kernel variants (original,
// baseline, optimized) with the 2.5D Cannon kernel and 2D SUMMA on the same
// problem — identical numerics, different virtual-time cost. All five
// engines drive the same purification logic through core.SquareCuber.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/purify"
	"commoverlap/internal/simnet"
)

// engine is one row of the table: a world size and the per-rank kernel
// that world runs.
type engine struct {
	name  string
	ranks int
	build func(pr *mpi.Proc) (core.SquareCuber, error)
}

func main() {
	n := flag.Int("n", 80, "matrix dimension")
	ne := flag.Int("ne", 16, "electron count")
	p := flag.Int("p", 2, "mesh edge (p^3 ranks in 3D, 2p x 2p x 2 in 2.5D, p x p in 2D)")
	ndup := flag.Int("ndup", 4, "N_DUP for the optimized, 2.5D and 2D engines")
	flag.Parse()

	f := mat.BandedHamiltonian(*n, 4)
	ref, refSt, err := purify.Serial(f, purify.Options{Ne: *ne})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial purification: %d iterations, idempotency %.1e\n\n", refSt.Iters, refSt.IdemErr)
	fmt.Printf("%-18s %8s %12s %12s %14s\n", "variant", "iters", "kernel time", "comm time", "max |D-D_ref|")

	cfg := func(ndup int) core.Config { return core.Config{N: *n, NDup: ndup, Real: true} }
	var engines []engine
	cube := mesh.Cubic(*p)
	for _, v := range []core.Variant{core.Original, core.Baseline, core.Optimized} {
		nd := 1
		if v == core.Optimized {
			nd = *ndup
		}
		engines = append(engines, engine{v.String(), cube.Size(), func(pr *mpi.Proc) (core.SquareCuber, error) {
			env, err := core.NewEnv(pr, cube, cfg(nd))
			return core.Kernel3D{Env: env, Variant: v}, err
		}})
	}
	cannon := mesh.Dims{Q: 2 * *p, C: 2} // Q must be a multiple of C
	engines = append(engines,
		engine{"cannon(2.5D)", cannon.Size(), func(pr *mpi.Proc) (core.SquareCuber, error) {
			env, err := core.NewEnv25(pr, cannon, cfg(*ndup))
			return core.Kernel25D{Env: env}, err
		}},
		engine{"summa(2D)", *p * *p, func(pr *mpi.Proc) (core.SquareCuber, error) {
			env, err := core.NewEnv2D(pr, *p, cfg(*ndup))
			return core.Kernel2D{Env: env, Pipelined: *ndup > 1}, err
		}},
	)

	for _, e := range engines {
		d, st := run(e, *n, *ne, f)
		fmt.Printf("%-18s %8d %10.4fs %10.4fs %14.2e\n",
			e.name, st.Iters, st.KernelTime, st.KernelTime-st.GemmTime, d.MaxAbsDiff(ref))
	}
}

// run purifies f on a machine with one rank per node and gathers the
// distributed density matrix from the ranks that hold blocks.
func run(e engine, n, ne int, f *mat.Matrix) (*mat.Matrix, purify.Stats) {
	var mu sync.Mutex
	got := mat.New(n, n)
	var gotSt purify.Stats
	m := machine.Spec{Config: simnet.DefaultConfig(e.ranks), Ranks: e.ranks}
	_, err := m.Run(func(pr *mpi.Proc) {
		k, err := e.build(pr)
		if err != nil {
			panic(err)
		}
		_, q, i, j, holds := k.Layout()
		var fblk *mat.Matrix
		if holds {
			fblk = mat.BlockView(f, q, i, j).Clone()
		}
		dblk, st, err := purify.NewDistKernel(k).Run(fblk, purify.Options{Ne: ne})
		if err != nil {
			panic(err)
		}
		if holds {
			mu.Lock()
			mat.BlockView(got, q, i, j).CopyFrom(dblk)
			gotSt = st
			mu.Unlock()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return got, gotSt
}
