// Command perfbench is the repository's host-time benchmark: how long the
// simulator takes to regenerate the paper's evaluation, to re-tune, and to
// run the ML and progress head-to-heads, end to end and layer by layer.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 20 --trace 0
//	python3 perfbench/run.py --record            # re-record golden.json for this goarch
//	python3 perfbench/run.py compare a.out b.out # diff two saved runs
//
// Every measured pass runs in a fresh child process, so caches, engine
// pools and the Go heap start empty, exactly as a user's CLI run does. The
// last stdout line is the result object; the line before it carries the
// environment and the exact counts behind it. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// deadline bounds a whole invocation, children included, so a hung
// simulation fails the run instead of stalling its caller.
const deadline = 170 * time.Second

// minSetupSamples is how many process start-ups each run times: passes
// count, and setup-only children make up the rest.
const minSetupSamples = 7

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	record   bool
	// child mode: "" (orchestrator), "pass", "setup" or "probes".
	child string
	ops   string
	index int
	t0    int64
}

func realMain() error {
	// The pool width is pinned by the benchmark, never inherited.
	os.Unsetenv("OVERLAP_WORKERS")
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (issue order and probe samples)")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run (per-layer metrics)")
	fs.BoolVar(&o.record, "record", false, "re-record golden.json for this goarch")
	fs.StringVar(&o.child, "child", "", "internal: child process mode")
	fs.StringVar(&o.ops, "ops", "", "internal: comma-separated ops for a pass child")
	fs.IntVar(&o.index, "index", 0, "internal: pass index")
	fs.Int64Var(&o.t0, "t0", 0, "internal: parent's spawn time (unix ns)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want >= 1", o.seconds)
	}
	// Every mode needs the checkout: the golden file and TUNING.json.
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	if o.record {
		return record(gold)
	}
	switch o.child {
	case "pass", "setup":
		return childPass(o, gold)
	case "probes":
		return childProbes(o, gold)
	case "":
	default:
		return fmt.Errorf("unknown --child %q", o.child)
	}
	ops, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("--workload %q: want one of %s", o.workload, workloadNames())
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var res runResult
	if o.trace == 1 {
		res, err = runTraced(ctx, o, strings.Join(ops, ","))
	} else {
		res, err = runPlain(ctx, o, strings.Join(ops, ","))
	}
	if err != nil {
		return err
	}
	return res.print(os.Stdout, o)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what the orchestrator reports.
type runResult struct {
	attempted, failed int
	problems          []string // counts off their golden values
	metrics           map[string]metric
	counts            map[string]int64
}

func (r *runResult) add(p passReport) {
	r.attempted += p.Attempted
	r.failed += p.Failed
	for _, e := range p.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", e)
	}
	r.problems = append(r.problems, p.Drift...)
	for k, v := range p.Counts {
		r.counts[k] = v
	}
}

// envRecord is the environment a result was measured in; results from
// mismatched environments are not comparable (bench.EnvMismatch).
type envRecord struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Cores     int    `json:"cores"`
	Workers   int    `json:"workers"`
}

func currentEnv() envRecord {
	return envRecord{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), poolWorkers()}
}

// poolWorkers is the replica-pool width: two workers, fewer on a smaller
// machine, so one run never asks for more CPUs than it has.
func poolWorkers() int {
	return min(2, runtime.NumCPU())
}

// detail is the second-to-last stdout line: everything needed to compare
// two runs later (perfbench compare) and to audit the counts.
type detail struct {
	Env      envRecord         `json:"env"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Problems []string          `json:"problems,omitempty"`
	Counts   map[string]int64  `json:"counts"`
	Metrics  map[string]metric `json:"metrics"`
}

func (r runResult) print(w io.Writer, o options) error {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK", p)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(detail{currentEnv(), o.workload, o.seed, o.trace, r.problems, r.counts, r.metrics}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0, r.attempted, r.failed, r.metrics})
}

// spawn runs this binary as a child in the given mode and decodes its one
// JSON report line. The child's stderr passes through.
func spawn(ctx context.Context, o options, mode, ops string, index int) (passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return passReport{}, err
	}
	// The child's set-up clock starts here, so setup_s covers process start.
	cmd := exec.CommandContext(ctx, self, "--child", mode, "--ops", ops,
		"--seed", strconv.FormatInt(o.seed, 10), "--index", strconv.Itoa(index),
		"--t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passReport{}, fmt.Errorf("%s child %q: %w", mode, ops, err)
	}
	var p passReport
	if err := json.Unmarshal(out, &p); err != nil {
		return passReport{}, fmt.Errorf("%s child %q: bad report: %w", mode, ops, err)
	}
	return p, nil
}

// runPlain is the untraced run: fresh-process passes of the workload for
// the measuring window, reported as medians.
func runPlain(ctx context.Context, o options, ops string) (runResult, error) {
	res := runResult{metrics: map[string]metric{}, counts: map[string]int64{}}
	var walls, cpus, allocs, setups []float64
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for i := 0; ; i++ {
		p, err := spawn(ctx, o, "pass", ops, i)
		if err != nil {
			return res, err
		}
		res.add(p)
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
		allocs = append(allocs, float64(p.AllocBytes)/1e6)
		setups = append(setups, p.SetupS)
		// Start another pass only if it should end inside the window.
		if time.Since(start)+time.Duration(p.WallS*float64(time.Second)) > budget {
			break
		}
	}
	for len(setups) < minSetupSamples {
		p, err := spawn(ctx, o, "setup", ops, len(setups))
		if err != nil {
			return res, err
		}
		setups = append(setups, p.SetupS)
	}
	res.counts["passes"] = int64(len(walls))
	res.metrics["wall_s"] = metric{median(walls), "s"}
	res.metrics["cpu_s"] = metric{median(cpus), "s"}
	res.metrics["setup_s"] = metric{median(setups), "s"}
	res.metrics["alloc_mb"] = metric{median(allocs), "MB"}
	return res, nil
}

// runTraced is the traced run: one traced pass of the workload (per-op
// spans, pool utilization), the remaining experiments so every bench.*_s
// metric is present, and the layer probes. All in fresh children.
func runTraced(ctx context.Context, o options, ops string) (runResult, error) {
	res := runResult{metrics: map[string]metric{}, counts: map[string]int64{}}
	p, err := spawn(ctx, o, "pass", ops, 0)
	if err != nil {
		return res, err
	}
	res.add(p)
	res.metrics["trace.pass_wall_s"] = metric{p.WallS, "s"}
	res.metrics["runner.cpu_util"] = metric{p.CPUS / (p.WallS * float64(poolWorkers())), "ratio"}
	// Peak RSS is a traced figure, not a gated one: on tune-quick it
	// depends on which two 256 MB workload cells the pool happens to run
	// together and on GC phase, and spreads about 25% between runs.
	res.metrics["max_rss_mb"] = metric{float64(p.MaxRSSKB) / 1024, "MB"}
	spans := p.Spans
	if rest := otherExperiments(strings.Split(ops, ",")); rest != "" {
		q, err := spawn(ctx, o, "pass", rest, 0)
		if err != nil {
			return res, err
		}
		res.add(q)
		for k, v := range q.Spans {
			spans[k] = v
		}
	}
	for _, name := range experimentNames() {
		res.metrics["bench."+name+"_s"] = metric{spans[name], "s"}
	}
	q, err := spawn(ctx, o, "probes", "", 0)
	if err != nil {
		return res, err
	}
	res.add(q)
	for k, v := range q.Layer {
		res.metrics[k] = v
	}
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
