package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"commoverlap/internal/bench"
	"commoverlap/internal/cache"
	"commoverlap/internal/tune"
)

// tuningPath is the committed quick-grid table tune-quick must reproduce
// byte for byte, relative to the checkout root.
const tuningPath = "TUNING.json"

// workloads are the three things users wait for, as the ops each pass
// issues; BENCHMARK.json gives the one-line reason for each. Each pass
// issues its ops in an order permuted by (seed, pass index); outputs never
// depend on the order.
var workloads = map[string][]string{
	// A few long simulations (64–216 ranks, phantom payloads) inside core
	// kernels: steady-state sim/simnet/mpi cost dominates, so engine,
	// fabric and collective work shows here.
	"paper-eval": {"fig3", "fig5", "fig6", "table1", "table2", "table3", "table4", "table5"},
	// 360 short fresh-world cells: world construction dominates, the pool
	// has many equal cases, and only here do tune and cache do the work.
	"tune-quick": {"tune"},
	// workload patterns, progress engines, the accelerator preset and the
	// hierarchical fabric: a different use of simnet and sim.Resource.
	"ml-progress": {"mlwork", "progress"},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// experimentNames lists every experiment op: everything but the tune
// search, which is checked against TUNING.json instead of a digest.
func experimentNames() []string {
	var names []string
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// otherExperiments is every experiment outside ops, comma-joined.
func otherExperiments(ops []string) string {
	var rest []string
	for _, name := range experimentNames() {
		if !slices.Contains(ops, name) {
			rest = append(rest, name)
		}
	}
	return strings.Join(rest, ",")
}

// experiments render one paper-style text output each, at the paper's
// sizes (ML full, progress quick).
var experiments = map[string]func(w *bytes.Buffer) error{
	"fig3":     func(w *bytes.Buffer) error { _, err := bench.Fig3(w); return err },
	"fig5":     func(w *bytes.Buffer) error { _, err := bench.Fig5(w); return err },
	"fig6":     func(w *bytes.Buffer) error { _, err := bench.Fig6(w); return err },
	"table1":   func(w *bytes.Buffer) error { _, err := bench.Table1(w, nil); return err },
	"table2":   func(w *bytes.Buffer) error { _, err := bench.Table2(w, nil); return err },
	"table3":   func(w *bytes.Buffer) error { _, err := bench.Table3(w, 0); return err },
	"table4":   func(w *bytes.Buffer) error { _, err := bench.Table4(w, 0); return err },
	"table5":   func(w *bytes.Buffer) error { _, err := bench.Table5(w, 0); return err },
	"mlwork":   func(w *bytes.Buffer) error { _, err := bench.MLWork(w, false); return err },
	"progress": func(w *bytes.Buffer) error { _, err := bench.ProgressBench(w, true); return err },
}

// passReport is one child's report line.
type passReport struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	MaxRSSKB   int64              `json:"max_rss_kb"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Drift      []string           `json:"drift,omitempty"` // counts off their golden values
	Spans      map[string]float64 `json:"spans,omitempty"`
	Counts     map[string]int64   `json:"counts,omitempty"`
	Layer      map[string]metric  `json:"layer,omitempty"`
}

// fail records one failed operation.
func (p *passReport) fail(op string, format string, args ...any) {
	p.Failed++
	p.Errors = append(p.Errors, op+": "+fmt.Sprintf(format, args...))
}

// checkDigest compares an output against the golden digest for this goarch.
func (p *passReport) checkDigest(g *goldenArch, name string, out []byte) {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if g.recording {
		g.Digests[name] = got
	} else if want, ok := g.Digests[name]; !ok {
		p.fail(name, "no golden digest for %s on %s", name, runtime.GOARCH)
	} else if got != want {
		p.fail(name, "output digest %s, golden %s", got[:16], want[:16])
	}
}

// order permutes n issue slots from the seed and a stream index.
func order(seed int64, stream, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream))).Perm(n)
}

// childPass runs one pass of the listed ops (or, in setup mode, stops just
// before the first one) and prints its report.
func childPass(o options, gold golden) error {
	bench.Workers = poolWorkers()
	g := gold.arch()
	ops := strings.Split(o.ops, ",")
	for _, op := range ops {
		if _, ok := experiments[op]; !ok && op != "tune" {
			return fmt.Errorf("unknown op %q", op)
		}
	}
	var want []byte
	if slices.Contains(ops, "tune") {
		var err error
		if want, err = os.ReadFile(tuningPath); err != nil {
			return err
		}
	}
	perm := order(o.seed, o.index, len(ops))
	rep := passReport{SetupS: float64(time.Now().UnixNano()-o.t0) / 1e9, Spans: map[string]float64{}, Counts: map[string]int64{}}
	if o.child == "setup" {
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := usage()
	start := time.Now()
	runOps(&rep, g, reorder(ops, perm), want)
	rep.WallS = time.Since(start).Seconds()
	cpu1, rss := usage()
	rep.CPUS = cpu1 - cpu0
	rep.MaxRSSKB = rss
	runtime.ReadMemStats(&ms1)
	rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rep.checkCounts(g)
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// reorder returns ops in issue order perm.
func reorder(ops []string, perm []int) []string {
	out := make([]string, len(perm))
	for i, j := range perm {
		out[i] = ops[j]
	}
	return out
}

// runOps issues ops in order, checks each output and records its span.
func runOps(rep *passReport, g *goldenArch, ops []string, want []byte) {
	for _, op := range ops {
		t := time.Now()
		if op == "tune" {
			runTune(rep, want)
		} else {
			var out bytes.Buffer
			rep.Attempted++
			if err := experiments[op](&out); err != nil {
				rep.fail(op, "%v", err)
			} else {
				rep.checkDigest(g, op, out.Bytes())
			}
		}
		rep.Spans[op] = time.Since(t).Seconds()
	}
}

// runTune is the tune-quick pass: a cold quick-grid search into a fresh
// store, which must reproduce TUNING.json byte for byte, then the same
// search again on that store, which must only look up. Every cell of both
// searches is an operation, and so is each table comparison.
func runTune(rep *passReport, want []byte) {
	committed, err := tune.ReadTable(bytes.NewReader(want))
	if err != nil {
		rep.Attempted++
		rep.fail("tune", "read %s: %v", tuningPath, err)
		return
	}
	store := cache.New(0)
	opts := tune.Options{Grid: tune.QuickGrid(), Workers: poolWorkers(), Cache: store}
	search := func(pass string) ([]byte, *tune.Table) {
		t, err := tune.Search(opts)
		if err != nil {
			n := cellCount(committed)
			rep.Attempted += n
			rep.Failed += n
			rep.Errors = append(rep.Errors, fmt.Sprintf("tune %s: %v", pass, err))
			return nil, nil
		}
		var buf bytes.Buffer
		if err := t.WriteJSON(&buf); err != nil {
			rep.fail("tune "+pass, "encode: %v", err)
		}
		rep.checkCells(pass, t, committed)
		return buf.Bytes(), t
	}
	s0 := store.Stats()
	cold, coldT := search("cold")
	s1 := store.Stats()
	warm, warmT := search("warm")
	s2 := store.Stats()
	rep.Attempted += 2
	if !bytes.Equal(cold, want) {
		rep.fail("tune cold", "table differs from %s", tuningPath)
	}
	if !bytes.Equal(warm, cold) {
		rep.fail("tune warm", "warm table differs from the cold one")
	}
	if coldT == nil || warmT == nil {
		return
	}
	rep.Counts["tune.cells"] = int64(cellCount(coldT))
	rep.Counts["cache.cold_misses"] = int64(s1.Misses - s0.Misses)
	rep.Counts["cache.cold_hits"] = int64(s1.Hits - s0.Hits)
	rep.Counts["cache.warm_misses"] = int64(s2.Misses - s1.Misses)
	rep.Counts["cache.warm_hits"] = int64(s2.Hits - s1.Hits)
	if cached, _, total := warmT.CachedCount(); cached != total {
		rep.fail("tune warm", "hit ratio %d/%d, want 1", cached, total)
	}
}

// checkCells counts each cell as an operation: it fails when its
// bandwidth or provenance hash differs from the committed table's.
func (p *passReport) checkCells(pass string, got, want *tune.Table) {
	if len(got.Entries) != len(want.Entries) {
		n := cellCount(got)
		p.Attempted += n
		p.Failed += n
		p.Errors = append(p.Errors, fmt.Sprintf("tune %s: %d entries, committed %d", pass, len(got.Entries), len(want.Entries)))
		return
	}
	for i, e := range got.Entries {
		we := want.Entries[i]
		for j, c := range e.Cells {
			p.Attempted++
			if j >= len(we.Cells) || c.BW != we.Cells[j].BW || c.Hash != we.Cells[j].Hash {
				p.fail("tune "+pass, "%s cell %d differs from %s", e.Kernel.Name(), j, tuningPath)
			}
		}
	}
}

func cellCount(t *tune.Table) int {
	n := 0
	for _, e := range t.Entries {
		n += len(e.Cells)
	}
	return n
}

// checkCounts compares every exact count against the golden file: the
// simulator is deterministic, so any drift is a defect that makes the
// whole run incorrect, not one failed operation.
func (p *passReport) checkCounts(g *goldenArch) {
	for k, v := range p.Counts {
		if want, ok := g.Counts[k]; !ok {
			p.Drift = append(p.Drift, fmt.Sprintf("no golden count %s on %s", k, runtime.GOARCH))
		} else if v != want {
			p.Drift = append(p.Drift, fmt.Sprintf("%s = %d, golden %d (nondeterminism)", k, v, want))
		}
	}
}

// usage reports this process's user+sys seconds and peak resident set in
// KiB (Linux units). RUSAGE_SELF cannot fail on Linux.
func usage() (cpuS float64, maxRSSKB int64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), ru.Maxrss
}
