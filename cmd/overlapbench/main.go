// Command overlapbench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	overlapbench [-n dim] [-csv dir] [-trace file] [-metrics] [experiment ...]
//	overlapbench -validate-trace file
//	overlapbench tune [-quick] [-table file] [-cells-csv file] [-cold]
//	overlapbench mlwork [-quick] [-csv dir]
//	overlapbench progress [-quick] [-csv dir]
//
// Experiments: fig3, fig4, fig5, fig6, table1, table2, table3, table4,
// table5 (the paper's artifacts), plus the extensions solver
// (pipelined-CG future work), algos (2D/3D/2.5D family comparison),
// ablate (design-knob sensitivity), sparse (block-sparse SUMMA), scaling
// (strong scaling), topo (the same allreduce swept over N_DUP, PPN and the
// collective-algorithm family on the flat vs the hierarchical fabric — the
// tuned winner is fabric-dependent), noise (the skew-resilience experiment:
// Fig. 5's cases re-measured under seeded machine noise from
// internal/faults), paperscale (64-node collectives plus
// kernel/application strong scaling to 216 nodes; add -tuned to apply the
// -table tuning table), tuned (the tuned-vs-fixed workload comparison over
// the -table tuning table; like report it only runs when named) and report
// (all paper claims checked with verdicts); "all" (the default) runs
// everything except report and tuned.
//
// The mlwork subcommand runs the ML-workload experiment (see
// internal/workload): the data-parallel, ZeRO-sharding and
// pipeline-parallel communication patterns on the accelerator preset,
// blocking vs overlapped, with per-pattern winners asserted and an
// mlwork.csv artifact under -csv. -quick shrinks the payloads to CI smoke
// sizes. The progress subcommand runs the progress-engine head-to-head (see
// internal/bench ProgressBench): the asynchronous progress engine — dedicated
// progress ranks or the per-node DMA offload engine — tuned against the
// paper's N_DUP and PPN mechanisms at equal total rank count, with a
// progress.csv artifact under -csv. An unknown experiment name or
// subcommand, or trailing arguments a subcommand does not take, exit
// non-zero with a usage message.
//
// The tune subcommand regenerates the -table tuning table (see
// internal/tune): a deterministic parallel search over the overlap
// parameter space, warm-started from the existing table when its cells'
// provenance hashes still match. -quick sweeps the coarse CI grid instead
// of the full one; identical cells within the search are simulated once.
// The directories of -table and -cells-csv are checked before the search
// starts. -workers must not be negative.
//
// -n overrides the matrix dimension for the kernel tables (default: the
// paper's 1hsg_70, N = 7645). -csv also writes each experiment's data as
// <dir>/<id>.csv.
//
// -trace writes the fig6 operation timeline as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing). -trace without fig6 selected, or
// -tuned without paperscale selected (by name or through "all"), exits
// non-zero rather than ignoring the flag. -metrics installs a virtual-time
// metrics registry into every experiment job and dumps the accumulated
// counters when the run finishes. -validate-trace checks that a previously
// exported trace file is well-formed (used by CI) and exits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"commoverlap/internal/bench"
	"commoverlap/internal/metrics"
	"commoverlap/internal/trace"
	"commoverlap/internal/tune"
)

// knownExperiments is the closed set of experiment names the default path
// accepts; anything else is a typo and must exit non-zero, not silently
// no-op.
var knownExperiments = map[string]bool{
	"fig3": true, "fig4": true, "fig5": true, "fig6": true,
	"table1": true, "table2": true, "table3": true, "table4": true, "table5": true,
	"solver": true, "algos": true, "ablate": true, "sparse": true, "scaling": true,
	"topo": true, "paperscale": true, "tuned": true, "noise": true, "report": true,
	"all": true,
}

// writeFile streams write into path through a buffered writer and
// propagates every failure — including Flush and Close errors, which is
// where a full disk actually surfaces — instead of dropping them in a
// deferred Close.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// main only translates realMain's status into a process exit. Every error
// path must go through realMain's return so the -cpuprofile/-memprofile
// defers flush before the process dies — calling os.Exit anywhere inside
// realMain (or a closure it builds) would silently drop the profiles of
// exactly the runs one is profiling to debug.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	n := flag.Int("n", 0, "matrix dimension for kernel tables (0 = paper's 1hsg_70)")
	csvDir := flag.String("csv", "", "directory to write <experiment>.csv files into")
	tracePath := flag.String("trace", "", "write the fig6 timeline as Chrome trace JSON to this file")
	showMetrics := flag.Bool("metrics", false, "accumulate and print virtual-time metrics across the runs")
	validate := flag.String("validate-trace", "", "validate a Chrome trace JSON file and exit")
	workers := flag.Int("workers", 0, "replica-pool width (0 = OVERLAP_WORKERS or GOMAXPROCS, 1 = sequential)")
	tuned := flag.Bool("tuned", false, "apply the -table tuning table to the paperscale experiment")
	tablePath := flag.String("table", "TUNING.json", "tuning table for -tuned and the tuned experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "overlapbench: -workers %d: want 0 (default pool) or a positive width\n", *workers)
		return 2
	}
	bench.Workers = *workers
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			runtime.GC()
			if err := writeFile(path, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *validate != "" {
		f, err := os.Open(*validate)
		if err == nil {
			err = trace.ValidateChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *validate, err)
			return 1
		}
		fmt.Printf("%s: valid Chrome trace\n", *validate)
		return 0
	}
	exps := flag.Args()
	if len(exps) > 0 && exps[0] == "tune" {
		if err := runTune(exps[1:], *workers); err != nil {
			fmt.Fprintf(os.Stderr, "tune: %v\n", err)
			return 1
		}
		return 0
	}
	if len(exps) > 0 && exps[0] == "mlwork" {
		if err := runMLWork(exps[1:], *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "mlwork: %v\n", err)
			return 1
		}
		return 0
	}
	if len(exps) > 0 && exps[0] == "progress" {
		if err := runProgress(exps[1:], *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "progress: %v\n", err)
			return 1
		}
		return 0
	}
	if len(exps) == 0 {
		exps = []string{"all"}
	}
	// Reject unknown experiment names and trailing junk up front: silently
	// running the default path on a typo reads as "the experiment ran".
	for _, e := range exps {
		if !knownExperiments[e] {
			fmt.Fprintf(os.Stderr, "overlapbench: unknown experiment or subcommand %q\n"+
				"usage: overlapbench [flags] [experiment ...]\n"+
				"experiments: fig3 fig4 fig5 fig6 table1 table2 table3 table4 table5\n"+
				"             solver algos ablate sparse scaling topo paperscale tuned noise report all\n"+
				"subcommands: tune mlwork progress\n", e)
			return 2
		}
	}
	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	all := want["all"]
	// Flags that feed one experiment must not be dropped silently when that
	// experiment does not run.
	if *tracePath != "" && !all && !want["fig6"] {
		fmt.Fprintf(os.Stderr, "overlapbench: -trace exports the fig6 timeline, but fig6 is not selected (name fig6 or all)\n")
		return 2
	}
	if *tuned && !all && !want["paperscale"] {
		fmt.Fprintf(os.Stderr, "overlapbench: -tuned applies to paperscale, but paperscale is not selected (name paperscale or all)\n")
		return 2
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *showMetrics {
		bench.Metrics = &metrics.Registry{}
	}

	// The experiment closures below record failures in code instead of
	// exiting: realMain must return normally so the profile defers flush.
	// A failure also stops the sweep — later experiments are skipped.
	code := 0

	csvOut := func(id string, write func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, id+".csv")
		if err := writeFile(path, write); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
			return
		}
		fmt.Printf("  [wrote %s]\n", path)
	}

	run := func(id string, fn func() error) {
		if code != 0 || (!all && !want[id]) {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			code = 1
			return
		}
		if code != 0 { // a csvOut inside fn failed
			return
		}
		fmt.Printf("  [%s regenerated in %.1fs wall time]\n\n", id, time.Since(start).Seconds())
	}

	systems := func() []bench.System {
		if *n != 0 {
			return []bench.System{{Name: "custom", N: *n}}
		}
		return nil
	}

	run("fig3", func() error {
		res, err := bench.Fig3(os.Stdout)
		if err != nil {
			return err
		}
		csvOut("fig3", func(f io.Writer) error { return res.WriteCSV(f) })
		return nil
	})
	run("fig4", func() error { bench.Fig4(os.Stdout); return nil })
	run("fig5", func() error {
		res, err := bench.Fig5(os.Stdout)
		if err != nil {
			return err
		}
		csvOut("fig5", func(f io.Writer) error { return res.WriteCSV(f) })
		return nil
	})
	run("fig6", func() error {
		res, err := bench.Fig6(os.Stdout)
		if err != nil {
			return err
		}
		csvOut("fig6", func(f io.Writer) error { return res.WriteCSV(f) })
		if *tracePath != "" {
			if err := writeFile(*tracePath, res.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Printf("  [wrote Chrome trace %s]\n", *tracePath)
		}
		return nil
	})
	run("table1", func() error {
		rows, err := bench.Table1(os.Stdout, systems())
		if err != nil {
			return err
		}
		csvOut("table1", func(f io.Writer) error { return bench.Table1CSV(f, rows) })
		return nil
	})
	run("table2", func() error {
		rows, err := bench.Table2(os.Stdout, systems())
		if err != nil {
			return err
		}
		csvOut("table2", func(f io.Writer) error { return bench.Table2CSV(f, rows) })
		return nil
	})
	run("table3", func() error {
		rows, err := bench.Table3(os.Stdout, *n)
		if err != nil {
			return err
		}
		csvOut("table3", func(f io.Writer) error { return bench.Table3CSV(f, rows) })
		return nil
	})
	run("table4", func() error {
		rows, err := bench.Table4(os.Stdout, *n)
		if err != nil {
			return err
		}
		csvOut("table4", func(f io.Writer) error { return bench.Table4CSV(f, rows) })
		return nil
	})
	run("table5", func() error {
		rows, err := bench.Table5(os.Stdout, *n)
		if err != nil {
			return err
		}
		csvOut("table5", func(f io.Writer) error { return bench.Table5CSV(f, rows) })
		return nil
	})
	// Extensions beyond the paper's evaluation (also included in "all").
	run("solver", func() error { _, err := bench.Solver(os.Stdout); return err })
	run("algos", func() error { _, err := bench.Algos(os.Stdout, *n); return err })
	run("ablate", func() error { _, err := bench.Ablate(os.Stdout, *n); return err })
	run("sparse", func() error { _, err := bench.Sparse(os.Stdout, 0); return err })
	run("scaling", func() error { _, err := bench.Scaling(os.Stdout, *n); return err })
	run("topo", func() error {
		res, err := bench.Topo(os.Stdout)
		if err != nil {
			return err
		}
		csvOut("topo", func(f io.Writer) error { return res.WriteCSV(f) })
		return nil
	})
	run("paperscale", func() error {
		var res bench.PaperScaleResult
		var err error
		if *tuned {
			var table *tune.Table
			table, err = tune.LoadTable(*tablePath)
			if err != nil {
				return fmt.Errorf("%w (generate one with `overlapbench tune -quick`)", err)
			}
			res, err = bench.PaperScaleTuned(os.Stdout, *n, table)
		} else {
			res, err = bench.PaperScale(os.Stdout, *n)
		}
		if err != nil {
			return err
		}
		csvOut("paperscale", func(f io.Writer) error { return res.WriteCSV(f) })
		return nil
	})
	// tuned (the tuned-vs-fixed workload comparison) needs a tuning table,
	// so like report it only fires when asked for by name.
	if code == 0 && want["tuned"] {
		table, err := tune.LoadTable(*tablePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tuned: %v (generate one with `overlapbench tune -quick`)\n", err)
			return 1
		}
		start := time.Now()
		res, err := bench.Tuned(os.Stdout, table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tuned: %v\n", err)
			return 1
		}
		csvOut("tuned", func(f io.Writer) error { return res.WriteCSV(f) })
		fmt.Printf("  [tuned regenerated in %.1fs wall time]\n\n", time.Since(start).Seconds())
	}
	run("noise", func() error {
		res, err := bench.Noise(os.Stdout)
		if err != nil {
			return err
		}
		csvOut("noise", func(f io.Writer) error { return res.WriteCSV(f) })
		return nil
	})
	// report re-runs the whole evaluation, so it only fires when asked for
	// by name, never as part of "all".
	if code == 0 && want["report"] {
		start := time.Now()
		_, failures, err := bench.Report(os.Stdout)
		if err == nil && failures > 0 {
			err = fmt.Errorf("%d claims failed", failures)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
		fmt.Printf("  [report regenerated in %.1fs wall time]\n\n", time.Since(start).Seconds())
	}
	if *showMetrics {
		fmt.Println("Virtual-time metrics accumulated across the runs:")
		bench.Metrics.WriteText(os.Stdout)
	}
	return code
}

// runMLWork runs the ML-workload experiment: the three training
// communication patterns blocking vs overlapped on the accelerator preset,
// with an mlwork.csv artifact when a CSV directory is set (the
// subcommand's own -csv flag, defaulting to the global one).
func runMLWork(args []string, csvDir string) error {
	fs := flag.NewFlagSet("mlwork", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "CI smoke payload sizes instead of the full ones")
	csv := fs.String("csv", csvDir, "directory to write mlwork.csv into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("unexpected arguments %q\nusage: overlapbench mlwork [-quick] [-csv dir]", fs.Args())
	}
	res, err := bench.MLWork(os.Stdout, *quick)
	if err != nil {
		return err
	}
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*csv, "mlwork.csv")
		if err := writeFile(path, res.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("  [wrote %s]\n", path)
	}
	return nil
}

// runProgress runs the progress-engine head-to-head: the asynchronous
// progress engine (dedicated progress ranks, per-node DMA offload) tuned
// against the paper's N_DUP and PPN mechanisms at equal total rank count on
// the Fig. 5/6 reduce regimes and the dp/zero workloads, with a
// progress.csv artifact when a CSV directory is set (the subcommand's own
// -csv flag, defaulting to the global one).
func runProgress(args []string, csvDir string) error {
	fs := flag.NewFlagSet("progress", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "CI smoke payload sizes instead of the full ones")
	csv := fs.String("csv", csvDir, "directory to write progress.csv into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("unexpected arguments %q\nusage: overlapbench progress [-quick] [-csv dir]", fs.Args())
	}
	res, err := bench.ProgressBench(os.Stdout, *quick)
	if err != nil {
		return err
	}
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*csv, "progress.csv")
		if err := writeFile(path, res.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("  [wrote %s]\n", path)
	}
	return nil
}

// runTune regenerates a tuning table: a full or -quick grid search over the
// default kernel set, warm-started from an existing table at -table when
// its cells' provenance hashes still match, then persisted back to -table
// (plus a per-cell CSV with -cells-csv).
func runTune(args []string, workers int) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "coarse grid (the CI smoke table) instead of the full search space")
	tablePath := fs.String("table", "TUNING.json", "tuning table to warm-start from and write back to")
	cellsCSV := fs.String("cells-csv", "", "also write every measured cell as CSV to this file")
	cold := fs.Bool("cold", false, "ignore an existing table (re-measure every cell)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("unexpected arguments %q\nusage: overlapbench tune [-quick] [-table file] [-cells-csv file] [-cold]", fs.Args())
	}
	// Fail before the search, not after minutes of simulation, when an
	// output cannot be written.
	for _, path := range []string{*tablePath, *cellsCSV} {
		if path == "" {
			continue
		}
		if st, err := os.Stat(filepath.Dir(path)); err != nil || !st.IsDir() {
			return fmt.Errorf("cannot write %s: no directory %s", path, filepath.Dir(path))
		}
	}
	grid := tune.FullGrid()
	if *quick {
		grid = tune.QuickGrid()
	}
	var warm *tune.Table
	if !*cold {
		if t, err := tune.LoadTable(*tablePath); err == nil {
			warm = t
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "  [ignoring warm-start table: %v]\n", err)
		}
	}
	opts := tune.Options{
		Grid:     grid,
		Workers:  workers,
		Warm:     warm,
		Progress: func(line string) { fmt.Printf("  %s\n", line) },
	}
	start := time.Now()
	table, err := tune.Search(opts)
	if err != nil {
		return err
	}
	warmN, total := table.WarmCount()
	fmt.Printf("  [%s grid: %d cells (%d warm-started) in %.1fs wall time]\n",
		grid.Name, total, warmN, time.Since(start).Seconds())
	if err := tune.SaveTable(*tablePath, table); err != nil {
		return err
	}
	fmt.Printf("  [wrote %s]\n", *tablePath)
	if *cellsCSV != "" {
		if err := writeFile(*cellsCSV, table.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("  [wrote %s]\n", *cellsCSV)
	}
	return nil
}
