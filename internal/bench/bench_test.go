package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/purify"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bandwidth) != len(res.Sizes) {
		t.Fatalf("row count %d want %d", len(res.Bandwidth), len(res.Sizes))
	}
	last := len(res.Sizes) - 1
	for j := 1; j < len(res.PPNs); j++ {
		// More PPN never hurts aggregate bandwidth (within 2%).
		for i := range res.Sizes {
			if res.Bandwidth[i][j] < res.Bandwidth[i][j-1]*0.98 {
				t.Errorf("size %d: PPN=%d bw %.0f < PPN=%d bw %.0f",
					res.Sizes[i], res.PPNs[j], res.Bandwidth[i][j], res.PPNs[j-1], res.Bandwidth[i][j-1])
			}
		}
	}
	// PPN=1 cannot attain the wire peak except at very large sizes; PPN=4
	// saturates far earlier. Peak is ~12400 MB/s.
	if res.Bandwidth[last][0] < 8000 {
		t.Errorf("PPN=1 peak bw %.0f too low", res.Bandwidth[last][0])
	}
	if res.Bandwidth[last][3] < 11500 {
		t.Errorf("PPN=8 peak bw %.0f should approach the wire", res.Bandwidth[last][3])
	}
	// Bandwidth grows with message size for PPN=1 at the large end.
	if res.Bandwidth[last][0] < res.Bandwidth[3][0] {
		t.Errorf("PPN=1 bandwidth not growing with size: %v", res.Bandwidth)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Sizes) - 1
	for opi, op := range []string{"bcast", "reduce"} {
		blocking := res.BW[opi][Blocking][last]
		overlap := res.BW[opi][NonblockingOverlap][last]
		multi := res.BW[opi][MultiPPNOverlap][last]
		if overlap < blocking {
			t.Errorf("%s: nonblocking overlap (%.0f) slower than blocking (%.0f) at 16MB", op, overlap, blocking)
		}
		if multi < blocking {
			t.Errorf("%s: 4-PPN overlap (%.0f) slower than blocking (%.0f) at 16MB", op, multi, blocking)
		}
	}
	// Blocking reduce is far below blocking bcast (the paper's main
	// observation about why the kernel is slow).
	if res.BW[1][Blocking][last] > 0.7*res.BW[0][Blocking][last] {
		t.Errorf("blocking reduce (%.0f) not clearly below blocking bcast (%.0f)",
			res.BW[1][Blocking][last], res.BW[0][Blocking][last])
	}
	// Multi-PPN helps the reduction the most (parallel combine arithmetic).
	if res.BW[1][MultiPPNOverlap][last] < 2*res.BW[1][Blocking][last] {
		t.Errorf("4-PPN reduce (%.0f) should be >= 2x blocking (%.0f)",
			res.BW[1][MultiPPNOverlap][last], res.BW[1][Blocking][last])
	}
	// The point of overlapping communication with communication: the
	// overlapped variants keep the wires busier than the blocking one.
	for opi, op := range []string{"bcast", "reduce"} {
		blk := res.Util[opi][Blocking]
		if blk.Elapsed <= 0 || blk.Wire <= 0 {
			t.Fatalf("%s: blocking case has no utilization data: %+v", op, blk)
		}
		for _, cc := range []CollCase{NonblockingOverlap, MultiPPNOverlap} {
			u := res.Util[opi][cc]
			if u.Wire <= blk.Wire {
				t.Errorf("%s %s: wire utilization %.1f%% not above blocking %.1f%%",
					op, cc, 100*u.Wire, 100*blk.Wire)
			}
			if u.Wire > 1+1e-9 || u.CPU > 1+1e-9 || u.NIC > 1+1e-9 {
				t.Errorf("%s %s: utilization exceeds 100%%: %+v", op, cc, u)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	find := func(es []TimelineEntry, c string) []TimelineEntry {
		var out []TimelineEntry
		for _, e := range es {
			if strings.HasPrefix(e.Case, c) {
				out = append(out, e)
			}
		}
		return out
	}
	for _, es := range [][]TimelineEntry{res.Reduce, res.Bcast} {
		blocking := find(es, "blocking 8MB")[0]
		overlap := find(es, "nonblk overlap")
		if len(overlap) != 4 {
			t.Fatalf("want 4 overlap entries, got %d", len(overlap))
		}
		// Posting of the overlapped ops is serialized: post times increase.
		for d := 1; d < 4; d++ {
			if overlap[d].Post < overlap[d-1].Ready {
				t.Errorf("overlap op %d posted at %g before op %d ready at %g",
					d, overlap[d].Post, d-1, overlap[d-1].Ready)
			}
		}
		// The overlapped set finishes no later than the single blocking op.
		lastDone := 0.0
		for _, e := range overlap {
			if e.Done > lastDone {
				lastDone = e.Done
			}
		}
		if lastDone > blocking.Done*1.05 {
			t.Errorf("overlap finished at %g, blocking at %g", lastDone, blocking.Done)
		}
		// 4-PPN case completes everything too.
		for _, e := range find(es, "4 PPN") {
			if e.Done <= 0 {
				t.Errorf("PPN entry has no completion: %+v", e)
			}
		}
	}
	// Per-case utilization rides along, and the overlap cases beat the
	// blocking 8 MB reference on wire busy fraction.
	for _, utils := range [][]CaseUtil{res.ReduceUtil, res.BcastUtil} {
		byCase := map[string]UtilStats{}
		for _, cu := range utils {
			byCase[cu.Case] = cu.Util
		}
		blk, ok := byCase["blocking 8MB"]
		if !ok || blk.Wire <= 0 {
			t.Fatalf("no blocking 8MB utilization in %+v", utils)
		}
		for _, c := range []string{"nonblk overlap N_DUP=4", "4 PPN overlap"} {
			if u, ok := byCase[c]; !ok || u.Wire <= blk.Wire {
				t.Errorf("%s wire utilization %.1f%% not above blocking %.1f%%",
					c, 100*u.Wire, 100*blk.Wire)
			}
		}
	}
	// The full timeline renders (all four overlapped parts included) and
	// round-trips through the Chrome trace exporter.
	var gantt strings.Builder
	RenderTimeline(&gantt, res.Reduce)
	for d := 1; d <= 4; d++ {
		want := fmt.Sprintf("#%d (2MB)", d)
		if !strings.Contains(gantt.String(), want) {
			t.Errorf("timeline render missing overlapped part %q:\n%s", want, gantt.String())
		}
	}
	var sb strings.Builder
	if err := res.WriteChromeTrace(&sb); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if err := trace.ValidateChromeTrace(strings.NewReader(sb.String())); err != nil {
		t.Errorf("exported fig6 trace invalid: %v", err)
	}
}

// Reduced-size systems keep the unit tests fast; the full-size tables run
// in cmd/overlapbench and the root-level benchmarks.
var testSystems = []System{{Name: "tiny", N: 2000, Ne: 400}}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(io.Discard, testSystems)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup < 1.0 {
			t.Errorf("%s: optimized slower than baseline (%.2f)", r.System.Name, r.Speedup)
		}
		if r.TFlops[1] < r.TFlops[0]*0.95 {
			t.Errorf("%s: baseline (%.2f) clearly slower than original (%.2f)",
				r.System.Name, r.TFlops[1], r.TFlops[0])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(io.Discard, testSystems)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		nd1, nd4 := r.TFlops[0], r.TFlops[3]
		if nd4 < nd1 {
			t.Errorf("%s: N_DUP=4 (%.2f) slower than N_DUP=1 (%.2f)", r.System.Name, nd4, nd1)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(io.Discard, 2000)
	if err != nil {
		t.Fatal(err)
	}
	best4 := 0.0
	for _, r := range rows {
		// The paper's own guidance (Section III-A): splitting only pays
		// while the per-band message stays above the n_t threshold. At this
		// reduced N the high-PPN meshes drop below it, so only require
		// N_DUP=4 to win where the bands are still comfortably large.
		block := int64(2000/r.Config.Mesh) * int64(2000/r.Config.Mesh) * 8
		if block/4 >= 512<<10 && r.TFlopsND4 < r.TFlopsND1*0.95 {
			t.Errorf("PPN=%d: N_DUP=4 (%.2f) clearly below N_DUP=1 (%.2f)",
				r.Config.PPN, r.TFlopsND4, r.TFlopsND1)
		}
		if r.TFlopsND4 > best4 {
			best4 = r.TFlopsND4
		}
		if r.TotalNodes > 64 {
			t.Errorf("PPN=%d uses %d nodes (>64)", r.Config.PPN, r.TotalNodes)
		}
	}
	// The paper's headline: the best overlapped configuration is much
	// faster than the plain baseline (PPN=1, N_DUP=1).
	if best4 < 1.2*rows[0].TFlopsND1 {
		t.Errorf("combined best (%.2f) < 1.2x plain baseline (%.2f)", best4, rows[0].TFlopsND1)
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(io.Discard, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table3Configs) {
		t.Fatalf("got %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Volume per node grows with PPN; bandwidths grow too; actual time falls.
	if last.VolumeMB <= first.VolumeMB {
		t.Errorf("inter-node volume should grow with PPN: %.0f -> %.0f", first.VolumeMB, last.VolumeMB)
	}
	if last.ReduceBW <= first.ReduceBW {
		t.Errorf("reduce BW should grow with PPN: %.1f -> %.1f", first.ReduceBW, last.ReduceBW)
	}
	for _, r := range rows {
		if r.EstTime <= 0 || r.ActualTime <= 0 {
			t.Errorf("PPN=%d: nonpositive times %+v", r.Config.PPN, r)
		}
		// The estimate is a lower bound-ish model; it must be within the
		// actual time's order of magnitude.
		if r.EstTime > 3*r.ActualTime || r.ActualTime > 6*r.EstTime {
			t.Errorf("PPN=%d: estimate %.3f vs actual %.3f diverge", r.Config.PPN, r.EstTime, r.ActualTime)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	// A reduced config set keeps this fast but covers c<q, c=q, high PPN.
	saved := Table5Configs
	Table5Configs = []Table5Config{{2, 8, 2}, {1, 4, 4}, {4, 6, 6}}
	defer func() { Table5Configs = saved }()
	rows, err := Table5(io.Discard, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TFlopsND4 < r.TFlopsND1*0.95 {
			t.Errorf("2.5D %dx%dx%d PPN=%d: N_DUP=4 (%.2f) below N_DUP=1 (%.2f)",
				r.Config.Q, r.Config.Q, r.Config.C, r.Config.PPN, r.TFlopsND4, r.TFlopsND1)
		}
	}
}

func TestKernelHelpers(t *testing.T) {
	kr, err := Kernel(core.Baseline, 1000, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Time <= 0 || kr.TFlops <= 0 || kr.Volume <= 0 {
		t.Errorf("bad kernel run %+v", kr)
	}
	if kr.GemmTime >= kr.Time {
		t.Errorf("gemm time %g >= total %g", kr.GemmTime, kr.Time)
	}
	if kr.CommTime <= 0 {
		t.Errorf("comm time %g", kr.CommTime)
	}
	if kr.WireUtil <= 0 || kr.WireUtil > 1 {
		t.Errorf("mean wire utilization %g outside (0,1]", kr.WireUtil)
	}
	if kr.PeakWireUtil < kr.WireUtil || kr.PeakWireUtil > 1 {
		t.Errorf("peak wire utilization %g vs mean %g", kr.PeakWireUtil, kr.WireUtil)
	}
	// Bad kernel input is an error naming the setting, returned before any
	// machine is built — never a panic on a rank goroutine.
	for name, run := range map[string]func() (KernelRun, error){
		"Kernel":    func() (KernelRun, error) { return Kernel(core.Optimized, -5, 2, 1, 1) },
		"Kernel25":  func() (KernelRun, error) { return Kernel25(2, 2, 100, 0, 1) },
		"KernelCfg": func() (KernelRun, error) { return KernelCfg(2, core.Config{N: 100, NDup: 1, Progress: "bogus"}) },
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s accepted a bad config", name)
		}
	}
	if _, err := Ablate(nil, -5); err == nil || !strings.Contains(err.Error(), "N = -5") {
		t.Errorf("Ablate(-5): %v, want an error naming N = -5", err)
	}
}

// TestMetricsSink checks the overlapbench -metrics plumbing: installing a
// registry makes experiment jobs feed it, and the feed is deterministic.
func TestMetricsSink(t *testing.T) {
	run := func() string {
		Metrics = &metrics.Registry{}
		defer func() { Metrics = nil }()
		if _, err := Kernel(core.Optimized, 1000, 2, 2, 1); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		Metrics.WriteText(&sb)
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("metrics not deterministic across identical runs:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"net.wire.bytes", "mpi.coll", "mpi.msgs"} {
		if !strings.Contains(a, want) {
			t.Errorf("metrics output missing %q:\n%s", want, a)
		}
	}
	// The ablation's non-default machines feed the sink like every other
	// kernel run.
	Metrics = &metrics.Registry{}
	defer func() { Metrics = nil }()
	if _, err := ablated(machine.Spec{Config: simnet.DefaultConfig(1), ReduceLongMsg: 1 << 30}, 1000, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Metrics.WriteText(&sb)
	if !strings.Contains(sb.String(), "mpi.coll") {
		t.Errorf("ablation run fed no metrics:\n%s", sb.String())
	}
}

func TestSystemsTable(t *testing.T) {
	if len(Systems) != 3 || Systems[2].N != 7645 {
		t.Errorf("systems table changed: %+v", Systems)
	}
}

func TestSolverExperiment(t *testing.T) {
	saved := SolverRanks
	SolverRanks = []int{8, 32}
	defer func() { SolverRanks = saved }()
	rows, err := Solver(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PipelinedTime > r.StandardTime*1.05 {
			t.Errorf("ranks=%d: pipelined CG (%g) slower than standard (%g)",
				r.Ranks, r.PipelinedTime, r.StandardTime)
		}
	}
	// The pipelined advantage must not shrink as ranks grow (latency rises).
	if len(rows) >= 2 && rows[len(rows)-1].Speedup < rows[0].Speedup*0.9 {
		t.Errorf("pipelined speedup shrank with scale: %v", rows)
	}
}

func TestAlgosExperiment(t *testing.T) {
	rows, err := Algos(io.Discard, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The communication-avoidance ladder: 3D beats 2D at this size.
	if rows[1].TFlopsND1 <= rows[0].TFlopsND1 {
		t.Errorf("3D (%0.2f) not faster than 2D SUMMA (%0.2f)", rows[1].TFlopsND1, rows[0].TFlopsND1)
	}
	// Overlap helps every family.
	for _, r := range rows {
		if r.TFlopsND4 < r.TFlopsND1*0.9 {
			t.Errorf("%s: N_DUP=4 (%0.2f) well below N_DUP=1 (%0.2f)", r.Name, r.TFlopsND4, r.TFlopsND1)
		}
	}
}

func TestAblateShape(t *testing.T) {
	rows, err := Ablate(io.Discard, 2000)
	if err != nil {
		t.Fatal(err)
	}
	byKnob := map[string]map[string]float64{}
	for _, r := range rows {
		if byKnob[r.Knob] == nil {
			byKnob[r.Knob] = map[string]float64{}
		}
		byKnob[r.Knob][r.Value] = r.TFlops
		if r.TFlops <= 0 {
			t.Errorf("%s=%s: nonpositive TFlops", r.Knob, r.Value)
		}
	}
	// Rabenseifner must beat forced-binomial reductions for MB-scale bands.
	if byKnob["reduce algorithm"]["rabenseifner"] <= byKnob["reduce algorithm"]["binomial"] {
		t.Errorf("rabenseifner (%.2f) not faster than binomial (%.2f)",
			byKnob["reduce algorithm"]["rabenseifner"], byKnob["reduce algorithm"]["binomial"])
	}
	// Oversubscribing the core must not speed anything up.
	if byKnob["fabric core"]["4:1 oversub"] > byKnob["fabric core"]["non-blocking"]*1.02 {
		t.Errorf("oversubscription sped up the kernel: %+v", byKnob["fabric core"])
	}
	// The reduce-algorithm group uses per-World switch points now, so the
	// package default must be what a fresh world observes.
	if mpi.DefaultReduceLongMsg != 64<<10 {
		t.Errorf("DefaultReduceLongMsg is %d", mpi.DefaultReduceLongMsg)
	}
}

func TestCSVWriters(t *testing.T) {
	var sb strings.Builder
	f3 := Fig3Result{Sizes: []int64{1, 2}, PPNs: []int{1, 2},
		Bandwidth: [][]float64{{1, 2}, {3, 4}}}
	if err := f3.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ppn2_MBps") || !strings.Contains(sb.String(), "3.0,4.0") {
		t.Errorf("fig3 csv:\n%s", sb.String())
	}

	sb.Reset()
	rows := []Table3Row{{Config: Table3Config{PPN: 2, Mesh: 5}, TotalNodes: 63, TFlopsND1: 1.5, TFlopsND4: 2.5}}
	if err := Table3CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2,5x5x5,63,1.500,2.500") {
		t.Errorf("table3 csv:\n%s", sb.String())
	}

	sb.Reset()
	f6 := Fig6Result{Reduce: []TimelineEntry{{Case: "c", Label: "l", Post: 1e-6, Ready: 2e-6, Done: 3e-6}}}
	if err := f6.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `reduce,"c","l",1.00,2.00,3.00`) {
		t.Errorf("fig6 csv:\n%s", sb.String())
	}

	sb.Reset()
	if err := Table4CSV(&sb, []Table4Row{{Config: Table3Config{PPN: 1, Mesh: 4}, VolumeMB: 10, ReduceBW: 2, BcastBW: 5, EstTime: 0.01, ActualTime: 0.02}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1,10.00,2.000,5.000,0.0100,0.0200") {
		t.Errorf("table4 csv:\n%s", sb.String())
	}

	sb.Reset()
	ps := PaperScaleResult{CollNodes: 64, CollSize: 1 << 20, CollBW: [3]float64{1000, 2000, 3000},
		Rows: []PaperScaleRow{{MeshEdge: 4, Ranks: 64, KernelND1: 20, KernelND4: 27, PurifyTFlops: 26.9, PurifyIters: 2}}}
	if err := ps.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "collective,,64,1000.0,2000.0,3000.0") ||
		!strings.Contains(sb.String(), "scaling,4x4x4,64,,,,20.000,27.000,26.900") {
		t.Errorf("paperscale csv:\n%s", sb.String())
	}
}

func TestSparseExperiment(t *testing.T) {
	rows, err := Sparse(io.Discard, 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PipelinedTime > r.BlockingTime*1.05 {
			t.Errorf("hb=%d: pipelined sparse (%g) slower than blocking (%g)",
				r.HalfBW, r.PipelinedTime, r.BlockingTime)
		}
	}
	// At low fill the sparse kernel must beat the dense one.
	if rows[0].BlockingTime >= rows[0].DenseTime {
		t.Errorf("sparse kernel (%g) not faster than dense (%g) at %.2f%% fill",
			rows[0].BlockingTime, rows[0].DenseTime, rows[0].FillPercent)
	}
	// Fill (and with it time) grows with bandwidth.
	if rows[len(rows)-1].FillPercent <= rows[0].FillPercent {
		t.Errorf("fill not growing: %+v", rows)
	}
}

// Table1App measures the kernel the way the paper actually does: averaged
// over the iterations of a (phantom) purification run rather than a single
// invocation. The simulator is deterministic, so the average matches the
// single-shot Table1 numbers; this entry point documents and checks that
// methodological equivalence.
func Table1App(w io.Writer, sys System, iters int) (float64, error) {
	if iters <= 0 {
		iters = 3
	}
	dims := mesh.Cubic(table1MeshEdge)
	var kernelTime float64
	_, err := job(dims.Size(), dims.Size(), nil, func(pr *mpi.Proc) {
		env, err := core.NewEnv(pr, dims, core.Config{N: sys.N, NDup: 4})
		if err != nil {
			panic(err)
		}
		dd := purify.NewDist(env, core.Optimized)
		_, st, err := dd.Run(nil, purify.Options{Ne: max(sys.Ne, 1), MaxIter: iters})
		if err != nil {
			panic(err)
		}
		if st.KernelTime > kernelTime {
			kernelTime = st.KernelTime
		}
	})
	if err != nil {
		return 0, err
	}
	tf := float64(iters) * core.KernelFlops(sys.N) / kernelTime / 1e12
	fprintf(w, "Table I (application-averaged, %d purification iterations): %s %.2f TFlops\n",
		iters, sys.Name, tf)
	return tf, nil
}

func TestTable1AppMatchesSingleShot(t *testing.T) {
	sys := System{Name: "tiny", N: 2000, Ne: 400}
	single, err := Kernel(core.Optimized, sys.N, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Table1App(io.Discard, sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic simulator: iteration-averaged TFlops ~ single-shot.
	if ratio := avg / single.TFlops; ratio < 0.93 || ratio > 1.07 {
		t.Errorf("averaged %.2f vs single-shot %.2f (ratio %.3f)", avg, single.TFlops, ratio)
	}
}

func TestScalingShape(t *testing.T) {
	rows, err := Scaling(io.Discard, 3000)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range rows {
		// More ranks never lose absolute performance in this range.
		if r.TFlopsND4 < prev*0.95 {
			t.Errorf("mesh %d^3: TFlops fell: %.2f after %.2f", r.MeshEdge, r.TFlopsND4, prev)
		}
		prev = r.TFlopsND4
		// Overlap always helps (at this size the bands stay large).
		if r.MeshEdge <= 4 && r.TFlopsND4 < r.TFlopsND1 {
			t.Errorf("mesh %d^3: overlap lost: %.2f vs %.2f", r.MeshEdge, r.TFlopsND4, r.TFlopsND1)
		}
	}
	// Efficiency decreases monotonically (communication grows with scale).
	for i := 1; i < len(rows); i++ {
		if rows[i].Efficiency > rows[i-1].Efficiency*1.05 {
			t.Errorf("efficiency rose with scale: %+v", rows)
		}
	}
}

func TestPaperScaleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("64..216-node sweep takes seconds")
	}
	res, err := PaperScale(io.Discard, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// The overlap argument must survive the deep reduction trees of the
	// 64-node machine: both overlap cases beat the blocking collective.
	if res.CollBW[NonblockingOverlap] <= res.CollBW[Blocking] ||
		res.CollBW[MultiPPNOverlap] <= res.CollBW[Blocking] {
		t.Errorf("overlap lost at %d nodes: %+v", res.CollNodes, res.CollBW)
	}
	if len(res.Rows) != len(paperScaleMeshes) {
		t.Fatalf("got %d scaling rows, want %d", len(res.Rows), len(paperScaleMeshes))
	}
	for _, r := range res.Rows {
		if r.KernelND4 <= 0 || r.KernelND1 <= 0 || r.PurifyTFlops <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
		// The application-averaged kernel matches the single-shot run: the
		// simulator is deterministic, so purification only repeats it.
		if rel := r.PurifyTFlops/r.KernelND4 - 1; rel > 0.05 || rel < -0.05 {
			t.Errorf("mesh %d^3: purify %.2f TF vs single-shot %.2f TF", r.MeshEdge, r.PurifyTFlops, r.KernelND4)
		}
	}
}

func TestReportAllClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size report takes ~30s")
	}
	claims, failures, err := Report(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		for _, c := range claims {
			if !c.Holds {
				t.Errorf("claim %s failed: %s (measured %s)", c.ID, c.Text, c.Measured)
			}
		}
	}
	if len(claims) < 10 {
		t.Errorf("only %d claims checked", len(claims))
	}
}
