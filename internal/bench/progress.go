package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/tune"
)

// The progress-engine experiment: the simulator's three overlap mechanisms
// tuned head-to-head at equal total rank count. N_DUP (duplicated
// communicators) and PPN (parked surplus ranks) are the paper's mechanisms;
// the progress engine — rank-mode agents advancing sibling pipelines, or a
// per-node DMA offload engine absorbing chunk forwarding — is the
// asynchronous-progress design the model grew on top of them. Each
// mechanism class sweeps its own knob(s) and reports its tuned best; the
// progress class may combine the engine with N_DUP and PPN, exactly as a
// real deployment would, so the headline is "the tuned progress-engine
// configuration vs the best the paper's mechanisms alone can do".

// ProgressCase is one benchmarked kernel: a Fig. 5/6 collective regime or
// an ML workload, at a fixed launch width (every class launches the same
// total rank count; what differs is how the lanes are spent).
type ProgressCase struct {
	Name      string
	Kernel    tune.Kernel
	LaunchPPN int
}

// progressCases are the Fig. 5/6 reduce regimes plus the dp/zero workloads.
// Quick mode shrinks the payloads for CI smoke runs; the schedule shape is
// unchanged.
func progressCases(quick bool) []ProgressCase {
	shrink := func(b int64) int64 {
		if quick {
			return b / 8
		}
		return b
	}
	return []ProgressCase{
		{"fig5-reduce-16MiB-4n", tune.Kernel{Op: "reduce", Bytes: shrink(16 << 20), Nodes: 4}, 4},
		{"fig6-reduce-8MiB-4n", tune.Kernel{Op: "reduce", Bytes: shrink(8 << 20), Nodes: 4}, 4},
		{"dp-8MiB-8n", tune.Kernel{Op: "dp", Bytes: shrink(8 << 20), Nodes: 8}, 4},
		{"zero-8MiB-8n@hier", tune.Kernel{Op: "zero", Bytes: shrink(8 << 20), Nodes: 8, Topo: "hier"}, 4},
	}
}

// ProgressClass is one mechanism class: the named mechanism's own sweep.
type ProgressClass struct {
	Name  string
	Cells []tune.Params
}

// progressClasses builds the per-case mechanism sweeps. Every cell launches
// launchPPN ranks per node; rank-mode progress cells whose agents would not
// fit next to the active lanes are skipped.
func progressClasses(launchPPN int, quick bool) []ProgressClass {
	ndups := []int{2, 4, 8}
	ppns := []int{2, 4}
	crossN := []int{1, 2, 4, 8}
	crossP := []int{1, 2, 4}
	progs := []string{"rank1", "dma"}
	if quick {
		ndups = []int{2, 4}
		crossN = []int{1, 4}
	}
	fit := func(ppn, lanes int) bool { return ppn+lanes <= launchPPN }
	var classes []ProgressClass

	classes = append(classes, ProgressClass{"blocking", []tune.Params{{NDup: 1, PPN: 1}}})

	var nd []tune.Params
	for _, n := range ndups {
		nd = append(nd, tune.Params{NDup: n, PPN: 1})
	}
	classes = append(classes, ProgressClass{"ndup", nd})

	var pp []tune.Params
	for _, p := range ppns {
		if fit(p, 0) {
			pp = append(pp, tune.Params{NDup: 1, PPN: p})
		}
	}
	classes = append(classes, ProgressClass{"ppn", pp})

	var both []tune.Params
	for _, n := range ndups {
		for _, p := range ppns {
			if fit(p, 0) {
				both = append(both, tune.Params{NDup: n, PPN: p})
			}
		}
	}
	classes = append(classes, ProgressClass{"ndup+ppn", both})

	var eng []tune.Params
	for _, prog := range progs {
		lanes := 0
		if prog == "rank1" {
			lanes = 1
		}
		for _, n := range crossN {
			for _, p := range crossP {
				if fit(p, lanes) {
					eng = append(eng, tune.Params{NDup: n, PPN: p, Progress: prog})
				}
			}
		}
	}
	classes = append(classes, ProgressClass{"progress", eng})
	return classes
}

// ProgressRow is one measured cell.
type ProgressRow struct {
	Case     string
	Class    string
	NDup     int
	PPN      int
	Progress string  // "" = engine off
	BW       float64 // bytes/s, paper volume convention (goodput for workloads)
}

func (r ProgressRow) label() string {
	s := fmt.Sprintf("ndup=%d ppn=%d", r.NDup, r.PPN)
	if r.Progress != "" {
		s += " prog=" + r.Progress
	}
	return s
}

// ProgressResult holds the sweep plus the per-case, per-class winners.
type ProgressResult struct {
	Rows []ProgressRow
	// Best maps case name -> class name -> the class's tuned best row.
	Best map[string]map[string]ProgressRow
}

// WriteCSV emits every cell as one CSV row.
func (r ProgressResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "case,class,ndup,ppn,progress,bw_mbs,best"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		best := 0
		if row == r.Best[row.Case][row.Class] {
			best = 1
		}
		prog := row.Progress
		if prog == "" {
			prog = "off"
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%s,%.3f,%d\n",
			row.Case, row.Class, row.NDup, row.PPN, prog, row.BW/1e6, best); err != nil {
			return err
		}
	}
	return nil
}

// ProgressBench measures every mechanism class on every case and reports
// the tuned winners. Cells fan through the replica runner; the result is
// byte-identical at any worker count.
func ProgressBench(w io.Writer, quick bool) (ProgressResult, error) {
	cases := progressCases(quick)
	type cellRef struct {
		ci    int
		class string
		p     tune.Params
	}
	var refs []cellRef
	for ci, c := range cases {
		for _, cl := range progressClasses(c.LaunchPPN, quick) {
			for _, p := range cl.Cells {
				refs = append(refs, cellRef{ci, cl.Name, p})
			}
		}
	}
	res := ProgressResult{Best: make(map[string]map[string]ProgressRow)}
	rows, err := parcases(len(refs), func(i int) (ProgressRow, error) {
		ref := refs[i]
		c := cases[ref.ci]
		row := ProgressRow{Case: c.Name, Class: ref.class,
			NDup: ref.p.NDup, PPN: ref.p.PPN, Progress: ref.p.Progress}
		bw, err := tune.Measure(c.Kernel, ref.p, c.LaunchPPN)
		row.BW = bw
		return row, err
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	for _, row := range rows {
		byClass := res.Best[row.Case]
		if byClass == nil {
			byClass = make(map[string]ProgressRow)
			res.Best[row.Case] = byClass
		}
		if best, ok := byClass[row.Class]; !ok || row.BW > best.BW {
			byClass[row.Class] = row
		}
	}

	fprintf(w, "Progress engine vs N_DUP vs PPN, tuned head-to-head (equal rank count per case)\n\n")
	for _, c := range cases {
		byClass := res.Best[c.Name]
		blocking := byClass["blocking"].BW
		fprintf(w, "%-22s %d nodes x %d lanes\n", c.Name, c.Kernel.Nodes, c.LaunchPPN)
		for _, cl := range progressClasses(c.LaunchPPN, quick) {
			b := byClass[cl.Name]
			fprintf(w, "  %-9s %-26s %9.0f MB/s  %5.2fx\n",
				cl.Name, b.label(), b.BW/1e6, b.BW/blocking)
		}
		if pe, ppn := byClass["progress"], byClass["ppn"]; ppn.BW > 0 {
			fprintf(w, "    progress/ppn: %.3fx   progress/ndup+ppn: %.3fx\n\n",
				pe.BW/ppn.BW, pe.BW/byClass["ndup+ppn"].BW)
		}
	}
	fprintf(w, "Each class launches the same total rank count; the progress class may\ncombine the engine with N_DUP and PPN (its agents ride in otherwise\nparked lanes, the DMA engine needs none).\n")
	return res, nil
}
