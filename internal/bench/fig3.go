package bench

import (
	"io"

	"commoverlap/internal/mpi"
)

// Fig3Result holds the unidirectional point-to-point bandwidth sweep:
// Bandwidth[i][j] is the aggregate bandwidth in MB/s for Sizes[i] and
// PPNs[j] streams between two nodes.
type Fig3Result struct {
	Sizes     []int64
	PPNs      []int
	Bandwidth [][]float64 // MB/s
}

// Fig3Sizes is the paper's message-size axis (1 B to 16 MB).
var Fig3Sizes = []int64{1, 16, 256, 2 << 10, 16 << 10, 128 << 10, 1 << 20, 4 << 20, 16 << 20}

// Fig3PPNs matches the paper's per-node process counts.
var Fig3PPNs = []int{1, 2, 4, 8}

// Fig3 measures unidirectional bandwidth between two nodes for each
// (message size, PPN) pair: all source ranks on node 0, all destinations on
// node 1, every source streaming reps messages to its peer (the paper's
// Fig. 3 setup). Every cell is an independent replica, fanned across the
// package's replica pool; the table renders from the index-ordered results.
func Fig3(w io.Writer) (Fig3Result, error) {
	res := Fig3Result{Sizes: Fig3Sizes, PPNs: Fig3PPNs}
	nc := len(res.PPNs)
	cells, err := parcases(len(res.Sizes)*nc, func(i int) (float64, error) {
		return p2pBandwidth(res.PPNs[i%nc], res.Sizes[i/nc])
	})
	if err != nil {
		return res, err
	}
	fprintf(w, "Figure 3: unidirectional p2p bandwidth (MB/s) vs message size, 2 nodes\n")
	fprintf(w, "%12s", "size(B)")
	for _, ppn := range res.PPNs {
		fprintf(w, "  PPN=%-6d", ppn)
	}
	fprintf(w, "\n")
	for i, size := range res.Sizes {
		row := make([]float64, nc)
		for j := range row {
			row[j] = cells[i*nc+j] / 1e6
		}
		res.Bandwidth = append(res.Bandwidth, row)
		fprintf(w, "%12d", size)
		for _, v := range row {
			fprintf(w, "  %-9.0f", v)
		}
		fprintf(w, "\n")
	}
	return res, nil
}

// p2pBandwidth returns aggregate bytes/s for ppn concurrent streams of
// msg-byte messages from node 0 to node 1.
func p2pBandwidth(ppn int, msg int64) (float64, error) {
	const reps = 4
	placement := make([]int, 2*ppn)
	for i := ppn; i < 2*ppn; i++ {
		placement[i] = 1
	}
	var elapsed float64
	_, err := job(2, 2*ppn, placement, func(pr *mpi.Proc) {
		c := pr.World()
		c.Barrier()
		t0 := pr.Now()
		if pr.Rank() < ppn {
			for r := 0; r < reps; r++ {
				c.Send(pr.Rank()+ppn, r, mpi.Phantom(msg))
			}
		} else {
			for r := 0; r < reps; r++ {
				c.Recv(pr.Rank()-ppn, r, mpi.Phantom(msg))
			}
			if dt := pr.Now() - t0; dt > elapsed {
				elapsed = dt
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(msg) * reps * float64(ppn) / elapsed, nil
}
