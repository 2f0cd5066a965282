package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/faults"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// CollCase identifies one of the three micro-benchmark configurations of
// the paper's Fig. 5.
type CollCase int

const (
	// Blocking: one rank per node, one blocking collective.
	Blocking CollCase = iota
	// NonblockingOverlap: one rank per node, NDup=4 nonblocking collectives
	// on duplicated communicators, each with 1/4 of the payload.
	NonblockingOverlap
	// MultiPPNOverlap: four ranks per node in four communicators (one rank
	// per node each), blocking collectives of 1/4 of the payload.
	MultiPPNOverlap
)

func (c CollCase) String() string {
	switch c {
	case Blocking:
		return "blocking"
	case NonblockingOverlap:
		return "nonblocking overlap N_DUP=4"
	case MultiPPNOverlap:
		return "4 PPN overlap"
	default:
		return fmt.Sprintf("case(%d)", int(c))
	}
}

// Fig5Result holds the measured collective bandwidth per (op, case, size).
type Fig5Result struct {
	Sizes []int64
	// BW[op][case][i] in MB/s for Sizes[i]; op 0 = bcast, 1 = reduce.
	BW [2][3][]float64
	// Util[op][case] is the resource utilization of the largest-size run —
	// the regime where overlap pays — with the same op indexing as BW.
	Util [2][3]UtilStats
}

// Fig5Sizes is the paper's size axis (16 B to 16 MB).
var Fig5Sizes = []int64{16, 128, 1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// fig5Nodes matches the paper's 4-node micro-benchmark.
const fig5Nodes = 4

// Fig5 measures broadcast and reduction bandwidth on 4 nodes under the
// three overlap cases. Bandwidth uses the paper's convention: the volume of
// a collective over p ranks is 2(p-1)/p * n.
func Fig5(w io.Writer) (Fig5Result, error) {
	res := Fig5Result{Sizes: Fig5Sizes}
	ops := []string{"bcast", "reduce"}
	fprintf(w, "Figure 5: collective bandwidth (MB/s) on %d nodes\n", fig5Nodes)
	fprintf(w, "%10s", "size(B)")
	for _, op := range ops {
		for c := Blocking; c <= MultiPPNOverlap; c++ {
			fprintf(w, "  %s/%-28s", op, c)
		}
	}
	fprintf(w, "\n")
	type cell struct {
		bw   float64
		util UtilStats
	}
	// Cases per size: (op, case) in row order, 6 cells per size row.
	cells, err := parcases(len(res.Sizes)*len(ops)*3, func(i int) (cell, error) {
		size := res.Sizes[i/(len(ops)*3)]
		op := ops[i/3%len(ops)]
		cc := CollCase(i % 3)
		bw, util, err := collectiveRun(op, cc, size)
		return cell{bw, util}, err
	})
	if err != nil {
		return res, err
	}
	for i, size := range res.Sizes {
		fprintf(w, "%10d", size)
		for opi := range ops {
			for c := Blocking; c <= MultiPPNOverlap; c++ {
				cl := cells[i*len(ops)*3+opi*3+int(c)]
				res.BW[opi][c] = append(res.BW[opi][c], cl.bw/1e6)
				if i == len(res.Sizes)-1 {
					res.Util[opi][c] = cl.util
				}
				fprintf(w, "  %-36.0f", cl.bw/1e6)
			}
		}
		fprintf(w, "\n")
	}
	last := res.Sizes[len(res.Sizes)-1]
	fprintf(w, "\nResource utilization at %d B (%% busy over each case's run):\n", last)
	fprintf(w, "%-10s %-30s %8s %8s %8s\n", "op", "case", "wire", "cpu", "nic")
	for opi, op := range ops {
		for c := Blocking; c <= MultiPPNOverlap; c++ {
			u := res.Util[opi][c]
			fprintf(w, "%-10s %-30s %7.1f%% %7.1f%% %7.1f%%\n",
				op, c, 100*u.Wire, 100*u.CPU, 100*u.NIC)
		}
	}
	return res, nil
}

// collectiveRun measures one Fig. 5 cell and the run's lane utilization.
func collectiveRun(op string, cc CollCase, total int64) (float64, UtilStats, error) {
	return collectiveRunNodes(op, cc, total, fig5Nodes, 0)
}

// collectiveRunNodes is collectiveRun on a machine of p nodes under
// faults.Noise(noiseSeed, amp) — the Fig. 5 micro-benchmark generalized to
// the paper-scale sweep and the skew-resilience experiment. Amplitude 0
// (an all-zero config) runs clean with no injector installed.
func collectiveRunNodes(op string, cc CollCase, total int64, p int, amp float64) (float64, UtilStats, error) {
	ppn, ndup := 1, 1
	switch cc {
	case NonblockingOverlap:
		ndup = 4
	case MultiPPNOverlap:
		ppn = 4
	}
	size := p * ppn
	var elapsed float64
	body := func(pr *mpi.Proc) {
		// Column communicators: one rank per node each (paper Fig. 4).
		col := pr.World().Split(pr.Rank()%ppn, pr.Rank()/ppn)
		comms := col.DupN(ndup)
		pr.World().Barrier()
		t0 := pr.Now()
		share := total / int64(ppn) / int64(ndup)
		if share == 0 {
			share = 1
		}
		reqs := make([]*mpi.Request, ndup)
		for d := 0; d < ndup; d++ {
			b := mpi.Phantom(share)
			if op == "bcast" {
				reqs[d] = comms[d].Ibcast(0, b)
			} else {
				reqs[d] = comms[d].Ireduce(0, b, b, mpi.OpSum)
			}
		}
		mpi.Waitall(reqs...)
		if dt := pr.Now() - t0; dt > elapsed {
			elapsed = dt
		}
	}
	eng, w, err := machineFor(p, size, mesh.NaturalPlacement(size, ppn)).Build()
	if err != nil {
		return 0, UtilStats{}, err
	}
	if cfg := faults.Noise(noiseSeed, amp); cfg != (faults.Config{Seed: cfg.Seed}) {
		inj, err := faults.New(cfg)
		if err != nil {
			return 0, UtilStats{}, err
		}
		inj.Install(w)
	}
	w.Launch(body)
	if err := eng.Run(); err != nil {
		return 0, UtilStats{}, err
	}
	vol := 2 * float64(p-1) / float64(p) * float64(total)
	return vol / elapsed, utilization(w), nil
}
