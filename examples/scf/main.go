// Scf runs the miniature self-consistent-field application (internal/scf,
// modeled on GTFock's Hartree–Fock loop) on the simulated cluster,
// demonstrating the paper's per-kernel PPN mechanism: the job launches more
// ranks than the purification kernel wants; the surplus parks on an
// Ibarrier during purification and wakes for each Fock build. The
// distributed result is checked against the serial SCF reference.
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
	"commoverlap/internal/scf"
	"commoverlap/internal/simnet"
)

func main() {
	n := flag.Int("n", 48, "basis size")
	ne := flag.Int("ne", 10, "electron count")
	meshP := flag.Int("p", 2, "purification mesh edge (p^3 active ranks)")
	extras := flag.Int("extras", 8, "surplus ranks parked during purification")
	ndup := flag.Int("ndup", 4, "N_DUP pipeline width")
	flag.Parse()

	f0 := mat.BandedHamiltonian(*n, 4)
	cfg := scf.Config{N: *n, Ne: *ne, Real: true, NDup: *ndup, Variant: core.Optimized}

	refD, refSt, err := scf.Serial(f0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial SCF: %d outer iterations (%d purification steps), converged=%v\n",
		refSt.SCFIters, refSt.PurifyIters, refSt.Converged)

	dims := mesh.Cubic(*meshP)
	var mu sync.Mutex
	got := mat.New(*n, *n)
	var gotSt scf.Stats
	m := machine.Spec{Config: simnet.DefaultConfig(8), Ranks: dims.Size() + *extras}
	_, err = m.Run(func(pr *mpi.Proc) {
		active := pr.Rank() < dims.Size()
		color := 1
		if active {
			color = 0
		}
		sub := pr.World().Split(color, pr.Rank())
		var env *core.Env
		if active {
			var err error
			env, err = core.NewEnvOn(pr, sub, dims, core.Config{N: *n, NDup: *ndup, Real: true})
			if err != nil {
				panic(err)
			}
		}
		dr, err := scf.NewDriver(pr, pr.World(), active, env, cfg)
		if err != nil {
			panic(err)
		}
		var f0blk *mat.Matrix
		if active && env.M.K == 0 {
			f0blk = mat.BlockView(f0, *meshP, env.M.I, env.M.J).Clone()
		}
		dblk, st, err := dr.Run(f0blk)
		if err != nil {
			panic(err)
		}
		if active && env.M.K == 0 {
			mu.Lock()
			mat.BlockView(got, *meshP, env.M.I, env.M.J).CopyFrom(dblk)
			gotSt = st
			mu.Unlock()
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed SCF (%d active + %d parked ranks): %d outer iterations, converged=%v\n",
		dims.Size(), *extras, gotSt.SCFIters, gotSt.Converged)
	fmt.Printf("  Fock-build time %.4fs, purification time %.4fs (virtual)\n",
		gotSt.FockTime, gotSt.PurifyTime)
	fmt.Printf("  max |D_dist - D_serial| = %.3e\n", got.MaxAbsDiff(refD))
}
