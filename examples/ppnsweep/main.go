// Ppnsweep demonstrates the paper's per-kernel PPN mechanism (Section
// III-B): an application launches many processes per node, but each kernel
// activates only the number that serves it best — surplus ranks park on an
// MPI_Ibarrier, polling with MPI_Test + usleep, and wake when the active
// ranks finish. Here a "Fock build" phase uses all 8 PPN while the
// communication-bound "purification" phase is swept across active-PPN
// choices to find its own optimum.
package main

import (
	"flag"
	"fmt"
	"log"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
)

func main() {
	n := flag.Int("n", 6000, "matrix dimension (phantom)")
	flag.Parse()

	const (
		nodes    = 8
		launched = 8 // PPN the job is launched with
	)
	fmt.Printf("launched %d ranks/node on %d nodes; sweeping active PPN for the kernel (N=%d)\n\n",
		launched, nodes, *n)
	fmt.Printf("%10s %12s %14s %12s\n", "activePPN", "mesh", "kernel time", "TFlops")

	for _, activePPN := range []int{1, 2, 4, 8} {
		// The largest cubic mesh that fits in nodes*activePPN ranks.
		p := 1
		for (p+1)*(p+1)*(p+1) <= nodes*activePPN {
			p++
		}
		dt := run(nodes, launched, activePPN, p, *n)
		fmt.Printf("%10d %9d^3 %12.4fs %12.2f\n",
			activePPN, p, dt, core.KernelFlops(*n)/dt/1e12)
	}
}

// run launches nodes*launched ranks, activates the first nodes*activePPN
// for a p^3-mesh SymmSquareCube, parks the rest, and returns the kernel's
// virtual time.
func run(nodes, launched, activePPN, p, n int) float64 {
	dims := mesh.Cubic(p)
	var kernelTime float64
	// The default round-robin placement puts rank r on node r % nodes, so
	// the first nodes*activePPN ranks spread activePPN per node.
	m := machine.Spec{Config: simnet.DefaultConfig(nodes), Ranks: nodes * launched}
	_, err := m.Run(func(pr *mpi.Proc) {
		// Communicator creation is collective, so the kernel's
		// subcommunicator is split off while every rank is still awake —
		// only then do the surplus ranks park.
		inMesh := pr.Rank() < dims.Size()
		sub := pr.World().Split(boolColor(inMesh), pr.Rank())
		active := pr.Rank() < nodes*activePPN
		mpi.RunActive(pr, pr.World(), active, mpi.DefaultPollInterval, func() {
			// The first p^3 active ranks form the kernel mesh; the rest of
			// the active set idles this kernel (a real code would give
			// them other work).
			if !inMesh {
				return
			}
			// Compute sharing reflects how many mesh ranks actually share
			// a node, not the raw active count.
			meshPPN := (dims.Size() + nodes - 1) / nodes
			env, err := core.NewEnvOn(pr, sub, dims, core.Config{N: n, NDup: 4, PPN: meshPPN})
			if err != nil {
				panic(err)
			}
			env.M.World.Barrier()
			res := env.SymmSquareCube(core.Optimized, nil)
			if res.Time > kernelTime {
				kernelTime = res.Time
			}
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	return kernelTime
}

func boolColor(b bool) int {
	if b {
		return 0
	}
	return 1
}
