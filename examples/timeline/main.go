// Timeline renders a Gantt view of the optimized SymmSquareCube kernel's
// phases across ranks — the tracing API (core.Env.Trace + internal/trace)
// applied to a real run. The picture makes the paper's pipeline visible:
// on the overlapped kernel the broadcast/reduce phases of different ranks
// slide over each other instead of lining up in lockstep.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

func main() {
	n := flag.Int("n", 4000, "matrix dimension (phantom)")
	p := flag.Int("p", 2, "mesh edge")
	ndup := flag.Int("ndup", 4, "N_DUP")
	variantName := flag.String("variant", "optimized", "original|baseline|optimized")
	traceOut := flag.String("trace", "", "write all ranks' phase spans as Chrome trace JSON to this file")
	flag.Parse()

	variant := map[string]core.Variant{
		"original": core.Original, "baseline": core.Baseline, "optimized": core.Optimized,
	}[*variantName]

	dims := mesh.Cubic(*p)
	var mu sync.Mutex
	var rec trace.Recorder
	phaseStart := map[int]float64{} // rank -> previous label's time
	m := machine.Spec{Config: simnet.DefaultConfig(dims.Size()), Ranks: dims.Size()}
	_, err := m.Run(func(pr *mpi.Proc) {
		env, err := core.NewEnv(pr, dims, core.Config{N: *n, NDup: *ndup})
		if err != nil {
			panic(err)
		}
		env.Trace = func(label string, at float64) {
			mu.Lock()
			defer mu.Unlock()
			if label == "start" {
				phaseStart[pr.Rank()] = at
				return
			}
			rec.Begin(pr.Rank(), label, phaseStart[pr.Rank()])
			rec.End(pr.Rank(), label, at)
			phaseStart[pr.Rank()] = at
		}
		env.M.World.Barrier()
		env.SymmSquareCube(variant, nil)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SymmSquareCube (%s, %d^3 mesh, N=%d, N_DUP=%d) phase spans:\n\n",
		*variantName, *p, *n, *ndup)
	// Render only the first mesh column's ranks to keep the chart readable.
	var filtered trace.Recorder
	evs := rec.Events()
	sort.Slice(evs, func(i, j int) bool { return evs[i].Rank < evs[j].Rank })
	for _, e := range evs {
		if e.Rank < 4 {
			filtered.Begin(e.Rank, e.Label, e.Start)
			filtered.End(e.Rank, e.Label, e.End)
		}
	}
	filtered.Render(os.Stdout, 70)

	// The text chart shows four ranks; the Chrome export carries every
	// rank's spans so the full pipeline can be studied interactively in
	// Perfetto (ui.perfetto.dev) or chrome://tracing.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		err = rec.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[wrote Chrome trace %s — open in Perfetto or chrome://tracing]\n", *traceOut)
	}
}
