// Quickstart: build a simulated 4-node machine, run an MPI-like job on it,
// and see communication-communication overlap pay off — the same collective
// work issued blocking, then as N_DUP=4 nonblocking pipelined operations on
// duplicated communicators (the paper's core technique).
package main

import (
	"fmt"
	"log"

	"commoverlap/internal/machine"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
)

func main() {
	const (
		nodes = 4
		size  = 8 << 20 // 8 MB payload
		ndup  = 4
	)
	var blocking, overlapped float64
	// One rank per node: the machine's default round-robin placement.
	m := machine.Spec{Config: simnet.DefaultConfig(nodes), Ranks: nodes}
	_, err := m.Run(func(p *mpi.Proc) {
		c := p.World()

		// A reduction followed by a broadcast, blocking: the broadcast
		// cannot start anywhere before the reduction has fully finished.
		c.Barrier()
		t0 := p.Now()
		c.Reduce(0, mpi.Phantom(size), mpi.Phantom(size), mpi.OpSum)
		c.Bcast(0, mpi.Phantom(size))
		c.Barrier()
		if p.Rank() == 0 {
			blocking = p.Now() - t0
		}

		// The same data split into ndup parts on duplicated communicators:
		// the root re-broadcasts each part the moment its reduction lands,
		// so part c's broadcast rides the wire while part c+1 still reduces.
		comms := c.DupN(ndup)
		c.Barrier()
		t1 := p.Now()
		part := int64(size / ndup)
		reduces := make([]*mpi.Request, ndup)
		for d := 0; d < ndup; d++ {
			reduces[d] = comms[d].Ireduce(0, mpi.Phantom(part), mpi.Phantom(part), mpi.OpSum)
		}
		bcasts := make([]*mpi.Request, ndup)
		for d := 0; d < ndup; d++ {
			if p.Rank() == 0 {
				reduces[d].Wait() // pipeline: wait part d, then forward it
			}
			bcasts[d] = comms[d].Ibcast(0, mpi.Phantom(part))
		}
		mpi.Waitall(bcasts...)
		mpi.Waitall(reduces...)
		c.Barrier()
		if p.Rank() == 0 {
			overlapped = p.Now() - t1
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("reduce+broadcast of %d MB on %d nodes (virtual time):\n", size>>20, nodes)
	fmt.Printf("  blocking:            %7.2f ms\n", blocking*1e3)
	fmt.Printf("  nonblocking overlap: %7.2f ms  (%.0f%% faster)\n",
		overlapped*1e3, (blocking/overlapped-1)*100)
}
