package bench

import (
	"io"

	"commoverlap/internal/core"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// Table4Row is one row of Table IV: the baseline kernel's inter-node
// communication per PPN configuration — measured volume, the collective
// bandwidths the micro-benchmark achieves at that PPN, the time the
// volume/bandwidth model estimates, and the actual communication time.
type Table4Row struct {
	Config     Table3Config
	VolumeMB   float64 // measured inter-node volume per node (MB)
	ReduceBW   float64 // micro-benchmark reduce bandwidth at this PPN (GB/s)
	BcastBW    float64 // micro-benchmark bcast bandwidth at this PPN (GB/s)
	EstTime    float64 // estimated inter-node communication time (s)
	ActualTime float64 // measured kernel communication time (s)
}

// table4OpMix apportions the baseline kernel's inter-node volume to
// operation classes: of its seven bulk movements per iteration, two are
// reductions, three are broadcasts, and two are point-to-point shipments
// (served at roughly broadcast bandwidth).
var table4OpMix = struct{ reduce, bcast float64 }{2.0 / 7.0, 5.0 / 7.0}

// Table4 reproduces Table IV for the baseline algorithm at N (default
// 1hsg_70): measured volume, micro-benchmarked bandwidths, and estimated vs
// actual communication time.
func Table4(w io.Writer, n int) ([]Table4Row, error) {
	if n == 0 {
		n = Systems[2].N
	}
	fprintf(w, "Table IV: estimated vs actual inter-node communication, baseline kernel (N=%d)\n", n)
	fprintf(w, "%4s %12s %12s %12s %10s %12s\n",
		"PPN", "volume(MB)", "ReduceBW", "BcastBW", "est time", "actual time")
	// Three independent jobs per configuration: the baseline kernel run and
	// the two collective micro-benchmarks at that PPN (16 MB payload,
	// 4 nodes, PPN column communicators — the Fig. 4 setup).
	type cell struct {
		kr       KernelRun
		rbw, bbw float64
	}
	cells, err := parcases(len(Table3Configs)*3, func(i int) (cell, error) {
		cfg := Table3Configs[i/3]
		switch i % 3 {
		case 0:
			kr, err := Kernel(core.Baseline, n, cfg.Mesh, 1, cfg.PPN)
			return cell{kr: kr}, err
		case 1:
			rbw, err := ppnCollectiveBW("reduce", cfg.PPN)
			return cell{rbw: rbw}, err
		default:
			bbw, err := ppnCollectiveBW("bcast", cfg.PPN)
			return cell{bbw: bbw}, err
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table4Row, 0, len(Table3Configs))
	for ci, cfg := range Table3Configs {
		kr := cells[3*ci].kr
		rbw, bbw := cells[3*ci+1].rbw, cells[3*ci+2].bbw
		perNode := float64(kr.Volume) / float64(kr.Nodes)
		est := perNode*table4OpMix.reduce/rbw + perNode*table4OpMix.bcast/bbw
		row := Table4Row{
			Config:     cfg,
			VolumeMB:   perNode / 1e6,
			ReduceBW:   rbw / 1e9,
			BcastBW:    bbw / 1e9,
			EstTime:    est,
			ActualTime: kr.CommTime,
		}
		rows = append(rows, row)
		fprintf(w, "%4d %12.1f %12.1f %12.1f %10.3f %12.3f\n",
			cfg.PPN, row.VolumeMB, row.ReduceBW, row.BcastBW, row.EstTime, row.ActualTime)
	}
	return rows, nil
}

// ppnCollectiveBW measures the blocking collective bandwidth with ppn
// processes per node overlapping (the MultiPPNOverlap case generalized to
// any PPN): ppn column communicators of one rank per node, each moving
// total/ppn bytes, on the 4-node micro-benchmark machine.
func ppnCollectiveBW(op string, ppn int) (float64, error) {
	const total = 16 << 20
	p := fig5Nodes
	var elapsed float64
	_, err := job(p, p*ppn, mesh.NaturalPlacement(p*ppn, ppn), func(pr *mpi.Proc) {
		col := pr.World().Split(pr.Rank()%ppn, pr.Rank()/ppn)
		pr.World().Barrier()
		t0 := pr.Now()
		b := mpi.Phantom(int64(total / ppn))
		if op == "bcast" {
			col.Bcast(0, b)
		} else {
			col.Reduce(0, b, b, mpi.OpSum)
		}
		if dt := pr.Now() - t0; dt > elapsed {
			elapsed = dt
		}
	})
	if err != nil {
		return 0, err
	}
	vol := 2 * float64(p-1) / float64(p) * float64(total)
	return vol / elapsed, nil
}
