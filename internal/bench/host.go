package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"commoverlap/internal/mpi"
	"commoverlap/internal/runner"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// Host-performance benchmark: where the paper's experiments measure the
// simulated machine in virtual time, this file measures the simulator
// itself in wall time — the regeneration cost of the evaluation, micro
// benchmarks of the DES hot paths, and the sequential-vs-parallel speedup
// of the replica pool. The result is the BENCH_wallclock.json artifact that
// CI regenerates and diffs against the committed baseline, so host-side
// regressions show up in review rather than as slowly rotting CI budgets.

// MicroBench is one DES hot-path micro benchmark result.
type MicroBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ExperimentTiming is one experiment's regeneration wall time, sequential
// and on the replica pool.
type ExperimentTiming struct {
	Name        string  `json:"name"`
	SequentialS float64 `json:"sequential_s"`
	ParallelS   float64 `json:"parallel_s"`
	Speedup     float64 `json:"speedup"`
}

// HostReport is the full host-performance artifact.
type HostReport struct {
	GoVersion        string             `json:"go_version"`
	GOOS             string             `json:"goos"`
	GOARCH           string             `json:"goarch"`
	Cores            int                `json:"cores"`
	Workers          int                `json:"workers"`
	Micro            []MicroBench       `json:"micro"`
	Experiments      []ExperimentTiming `json:"experiments"`
	TotalSequentialS float64            `json:"total_sequential_s"`
	TotalParallelS   float64            `json:"total_parallel_s"`
	Speedup          float64            `json:"speedup"`
}

// hostExperiments is every simulation-backed experiment "all" runs, at the
// paper's problem sizes, output discarded — the timed payload.
var hostExperiments = []struct {
	name string
	run  func() error
}{
	{"fig3", func() error { _, err := Fig3(nil); return err }},
	{"fig5", func() error { _, err := Fig5(nil); return err }},
	{"fig6", func() error { _, err := Fig6(nil); return err }},
	{"table1", func() error { _, err := Table1(nil, nil); return err }},
	{"table2", func() error { _, err := Table2(nil, nil); return err }},
	{"table3", func() error { _, err := Table3(nil, 0); return err }},
	{"table4", func() error { _, err := Table4(nil, 0); return err }},
	{"table5", func() error { _, err := Table5(nil, 0); return err }},
	{"solver", func() error { _, err := Solver(nil); return err }},
	{"algos", func() error { _, err := Algos(nil, 0); return err }},
	{"ablate", func() error { _, err := Ablate(nil, 0); return err }},
	{"sparse", func() error { _, err := Sparse(nil, 0); return err }},
	{"scaling", func() error { _, err := Scaling(nil, 0); return err }},
	{"noise", func() error { _, err := Noise(nil); return err }},
	{"paperscale", func() error { _, err := PaperScale(nil, 0); return err }},
}

// hostMicro are the DES hot-path micro benchmarks, mirroring the packages'
// testing.B benchmarks so the artifact captures allocs/op without go test.
var hostMicro = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"sim/event-throughput-64proc", func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		const procs = 64
		stop := false
		for i := 0; i < procs; i++ {
			e.Spawn("p", func(p *sim.Proc) {
				for !stop {
					p.Sleep(1)
				}
			})
		}
		e.Spawn("ctl", func(p *sim.Proc) {
			p.Sleep(float64(b.N) / procs)
			stop = true
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}},
	{"mpi/allreduce-64rank-1MB", func(b *testing.B) {
		// Steady state: all b.N allreduces share one world, so the number
		// reflects the pooled hot path (requests, envelopes, gates, scratch
		// recycled), not world construction. The -cold variant below tracks
		// the spin-up cost separately.
		b.ReportAllocs()
		steadyJob(b, 16, 64, func(p *mpi.Proc, _ int) {
			p.World().Allreduce(mpi.Phantom(1<<20), mpi.OpSum)
		})
	}},
	{"mpi/allreduce-64rank-1MB-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := job(16, 64, nil, func(p *mpi.Proc) {
				p.World().Allreduce(mpi.Phantom(1<<20), mpi.OpSum)
			}); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"simnet/p2p-stream-100msg", func(b *testing.B) {
		b.ReportAllocs()
		steadyJob(b, 2, 2, func(p *mpi.Proc, i int) {
			c := p.World()
			if p.Rank() == 0 {
				for m := 0; m < 100; m++ {
					c.Send(1, i*100+m, mpi.Phantom(4096))
				}
			} else {
				for m := 0; m < 100; m++ {
					c.Recv(0, i*100+m, mpi.Phantom(4096))
				}
			}
		})
	}},
	{"simnet/transfer-16MB-chunked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			net, err := simnet.New(eng, simnet.DefaultConfig(2))
			if err != nil {
				b.Fatal(err)
			}
			a, bb := net.NewEndpoint(0), net.NewEndpoint(1)
			_, delivered := net.Transfer(a, bb, 16<<20)
			eng.Spawn("sink", func(p *sim.Proc) { p.Wait(delivered) })
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}},
}

// steadyJob runs b.N iterations of body inside ONE simulated world and
// resets the benchmark clock after construction, so the measured ns/op and
// allocs/op are the steady-state per-operation cost with every freelist
// warm.
func steadyJob(b *testing.B, nodes, ranks int, body func(p *mpi.Proc, i int)) {
	b.Helper()
	eng, w, err := machineFor(nodes, ranks, nil).Build()
	if err != nil {
		b.Fatal(err)
	}
	w.Launch(func(p *mpi.Proc) {
		for i := 0; i < b.N; i++ {
			body(p, i)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// HostBench measures the simulator's host performance: the micro benchmarks
// and every experiment's regeneration time, sequential (Workers=1) and on
// the replica pool (Workers=0, i.e. the runner default). progress (when
// non-nil) receives one line per completed step.
func HostBench(progress io.Writer) (HostReport, error) {
	rep := HostReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Cores:     runtime.NumCPU(),
		Workers:   runner.DefaultWorkers(),
	}
	for _, m := range hostMicro {
		r := testing.Benchmark(m.fn)
		rep.Micro = append(rep.Micro, MicroBench{
			Name:        m.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fprintf(progress, "  micro %-32s %12.0f ns/op %8d allocs/op\n",
			m.name, rep.Micro[len(rep.Micro)-1].NsPerOp, r.AllocsPerOp())
	}
	saved := Workers
	defer func() { Workers = saved }()
	for _, ex := range hostExperiments {
		t := ExperimentTiming{Name: ex.name}
		Workers = 1
		start := time.Now()
		if err := ex.run(); err != nil {
			return rep, fmt.Errorf("%s (sequential): %w", ex.name, err)
		}
		t.SequentialS = time.Since(start).Seconds()
		Workers = 0
		start = time.Now()
		if err := ex.run(); err != nil {
			return rep, fmt.Errorf("%s (parallel): %w", ex.name, err)
		}
		t.ParallelS = time.Since(start).Seconds()
		if t.ParallelS > 0 {
			t.Speedup = t.SequentialS / t.ParallelS
		}
		rep.TotalSequentialS += t.SequentialS
		rep.TotalParallelS += t.ParallelS
		rep.Experiments = append(rep.Experiments, t)
		fprintf(progress, "  %-12s sequential %6.2fs  parallel %6.2fs  %.2fx\n",
			ex.name, t.SequentialS, t.ParallelS, t.Speedup)
	}
	if rep.TotalParallelS > 0 {
		rep.Speedup = rep.TotalSequentialS / rep.TotalParallelS
	}
	return rep, nil
}

// WriteJSON emits the artifact (indented, trailing newline).
func (r HostReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadHostReport parses a previously written artifact.
func ReadHostReport(r io.Reader) (HostReport, error) {
	var rep HostReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}

// EnvMismatch lists the environment fields on which two artifacts differ,
// as "field: base vs current" strings. Timing comparisons between
// mismatched environments are meaningless — a 1-core runner comparing
// itself against an 8-core baseline reports a 'regression' that is really
// the hardware — so DiffHostReports downgrades the timing gate to
// report-only whenever this list is non-empty.
func EnvMismatch(base, cur HostReport) []string {
	var m []string
	add := func(field string, b, c any) {
		if b != c {
			m = append(m, fmt.Sprintf("%s: %v vs %v", field, b, c))
		}
	}
	add("go_version", base.GoVersion, cur.GoVersion)
	add("goos", base.GOOS, cur.GOOS)
	add("goarch", base.GOARCH, cur.GOARCH)
	add("cores", base.Cores, cur.Cores)
	add("workers", base.Workers, cur.Workers)
	return m
}

// toolchainMismatch reports whether the artifacts came from different
// toolchains (Go version, OS, architecture). Allocation counts are
// hardware-independent but not toolchain-independent, so the alloc gate
// follows this narrower test rather than full EnvMismatch.
func toolchainMismatch(base, cur HostReport) bool {
	return base.GoVersion != cur.GoVersion || base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH
}

// DiffOptions configures DiffHostReports gating.
type DiffOptions struct {
	// TimingThresholdPct flags timings that slowed down by more than this
	// percentage.
	TimingThresholdPct float64
	// AllocThresholdPct flags micro benchmarks whose allocs/op grew by
	// more than this percentage (any growth from a zero base is flagged).
	AllocThresholdPct float64
}

// DiffResult is what DiffHostReports found and which gates are valid.
type DiffResult struct {
	// TimingRegressions counts timings beyond TimingThresholdPct. Only
	// meaningful for gating when TimingGateActive.
	TimingRegressions int
	// AllocRegressions counts micro benchmarks whose allocs/op grew
	// beyond AllocThresholdPct. Only meaningful when AllocGateActive.
	AllocRegressions int
	// EnvMismatches is EnvMismatch(base, cur); non-empty downgrades the
	// timing comparison to report-only.
	EnvMismatches []string
	// TimingGateActive: the environments match, so timing deltas are
	// attributable to the code.
	TimingGateActive bool
	// AllocGateActive: the toolchains match, so allocs/op deltas are
	// attributable to the code (cores and workers do not move them).
	AllocGateActive bool
}

// DiffHostReports writes a benchstat-style comparison of two artifacts:
// micro benchmarks and experiment timings side by side with the relative
// change. Slowdowns beyond opts.TimingThresholdPct and micro alloc growth
// beyond opts.AllocThresholdPct are flagged with a trailing "!" and
// counted in the result, so callers can opt into gating (overlapbench
// bench-diff -fail-on-regression); by default the diff only informs
// review. When the two artifacts come from different environments the
// timing gate is downgraded to report-only with an explicit banner — it
// used to compare a laptop against a CI runner and call the difference a
// regression. The alloc gate stays active across hardware changes (same
// toolchain) because allocation counts do not depend on core count.
func DiffHostReports(w io.Writer, base, cur HostReport, opts DiffOptions) DiffResult {
	res := DiffResult{
		EnvMismatches:   EnvMismatch(base, cur),
		AllocGateActive: !toolchainMismatch(base, cur),
	}
	res.TimingGateActive = len(res.EnvMismatches) == 0
	tflag := func(deltaPct float64) string {
		if deltaPct > opts.TimingThresholdPct {
			res.TimingRegressions++
			return "!"
		}
		return ""
	}
	allocFlag := func(b, c int64) string {
		grew := (b == 0 && c > 0) ||
			(b > 0 && pctDelta(float64(b), float64(c)) > opts.AllocThresholdPct)
		if grew && res.AllocGateActive {
			res.AllocRegressions++
			return "!"
		}
		return ""
	}
	fprintf(w, "Host benchmark diff (base: %s %s/%s %d cores %d workers; current: %s %s/%s %d cores %d workers)\n",
		base.GoVersion, base.GOOS, base.GOARCH, base.Cores, base.Workers,
		cur.GoVersion, cur.GOOS, cur.GOARCH, cur.Cores, cur.Workers)
	if len(res.EnvMismatches) > 0 {
		fprintf(w, "env-mismatch: report-only — timing gate disabled (%s)\n",
			strings.Join(res.EnvMismatches, "; "))
		if !res.AllocGateActive {
			fprintf(w, "env-mismatch: toolchain differs — alloc gate disabled too\n")
		}
	}
	fprintf(w, "\n%-34s %14s %14s %8s %10s %10s %8s\n",
		"micro", "base ns/op", "cur ns/op", "delta", "base a/op", "cur a/op", "delta")
	baseMicro := map[string]MicroBench{}
	for _, m := range base.Micro {
		baseMicro[m.Name] = m
	}
	for _, m := range cur.Micro {
		bm, ok := baseMicro[m.Name]
		if !ok {
			fprintf(w, "%-34s %14s %14.0f %8s %10s %10d %8s\n", m.Name, "-", m.NsPerOp, "new", "-", m.AllocsPerOp, "new")
			continue
		}
		d := pctDelta(bm.NsPerOp, m.NsPerOp)
		fprintf(w, "%-34s %14.0f %14.0f %7.1f%%%s %10d %10d %7.1f%%%s\n",
			m.Name, bm.NsPerOp, m.NsPerOp, d, tflag(d),
			bm.AllocsPerOp, m.AllocsPerOp,
			pctDelta(float64(bm.AllocsPerOp), float64(m.AllocsPerOp)),
			allocFlag(bm.AllocsPerOp, m.AllocsPerOp))
	}
	fprintf(w, "\n%-12s %10s %10s %8s %10s %10s %8s\n",
		"experiment", "base seq", "cur seq", "delta", "base par", "cur par", "delta")
	baseExp := map[string]ExperimentTiming{}
	for _, e := range base.Experiments {
		baseExp[e.Name] = e
	}
	for _, e := range cur.Experiments {
		be, ok := baseExp[e.Name]
		if !ok {
			fprintf(w, "%-12s %10s %9.2fs %8s %10s %9.2fs %8s\n", e.Name, "-", e.SequentialS, "new", "-", e.ParallelS, "new")
			continue
		}
		ds, dp := pctDelta(be.SequentialS, e.SequentialS), pctDelta(be.ParallelS, e.ParallelS)
		fprintf(w, "%-12s %9.2fs %9.2fs %7.1f%%%s %9.2fs %9.2fs %7.1f%%%s\n",
			e.Name, be.SequentialS, e.SequentialS, ds, tflag(ds),
			be.ParallelS, e.ParallelS, dp, tflag(dp))
	}
	fprintf(w, "\ntotal: sequential %.2fs -> %.2fs (%+.1f%%), parallel %.2fs -> %.2fs (%+.1f%%), pool speedup %.2fx -> %.2fx\n",
		base.TotalSequentialS, cur.TotalSequentialS, pctDelta(base.TotalSequentialS, cur.TotalSequentialS),
		base.TotalParallelS, cur.TotalParallelS, pctDelta(base.TotalParallelS, cur.TotalParallelS),
		base.Speedup, cur.Speedup)
	if res.TimingRegressions > 0 {
		gate := "gated"
		if !res.TimingGateActive {
			gate = "report-only: env mismatch"
		}
		fprintf(w, "%d timing(s) regressed more than %.1f%% (marked !, %s)\n",
			res.TimingRegressions, opts.TimingThresholdPct, gate)
	}
	if res.AllocRegressions > 0 {
		fprintf(w, "%d micro bench(es) grew allocs/op more than %.1f%% (marked !)\n",
			res.AllocRegressions, opts.AllocThresholdPct)
	}
	return res
}

func pctDelta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur - base) / base
}
