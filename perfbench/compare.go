package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"commoverlap/internal/bench"
)

// compareMain diffs two saved runs (their full stdout): every metric side
// by side with the relative change. It refuses, with exit status 2, when
// the runs differ in workload, trace mode or environment — the
// bench.EnvMismatch rule: a timing from another core count, worker count
// or toolchain says nothing about the code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out CURRENT.out")
		return 2
	}
	base, err := readDetail(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	cur, err := readDetail(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %s/trace=%d vs %s/trace=%d\n",
			base.Workload, base.Trace, cur.Workload, cur.Trace)
		return 2
	}
	if m := bench.EnvMismatch(base.Env.host(), cur.Env.host()); len(m) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: environments differ (%s)\n", strings.Join(m, "; "))
		return 2
	}
	var names []string
	for k := range cur.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s trace=%d (%s %s/%s %d cores %d workers)\n", cur.Workload, cur.Trace,
		cur.Env.GoVersion, cur.Env.GOOS, cur.Env.GOARCH, cur.Env.Cores, cur.Env.Workers)
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", "base", "current", "delta")
	for _, k := range names {
		c := cur.Metrics[k]
		b, ok := base.Metrics[k]
		if !ok {
			fmt.Printf("%-32s %14s %14.6g %8s %s\n", k, "-", c.Value, "new", c.Unit)
			continue
		}
		delta := "-"
		if b.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(c.Value-b.Value)/b.Value)
		}
		fmt.Printf("%-32s %14.6g %14.6g %8s %s\n", k, b.Value, c.Value, delta, c.Unit)
	}
	return 0
}

func (e envRecord) host() bench.HostReport {
	return bench.HostReport{GoVersion: e.GoVersion, GOOS: e.GOOS, GOARCH: e.GOARCH, Cores: e.Cores, Workers: e.Workers}
}

// readDetail finds the detail line (the one carrying "env") in a saved run.
func readDetail(path string) (detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return detail{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var d detail
		if json.Unmarshal(sc.Bytes(), &d) == nil && d.Env.GOARCH != "" {
			return d, nil
		}
	}
	if err := sc.Err(); err != nil {
		return detail{}, fmt.Errorf("%s: %w", path, err)
	}
	return detail{}, fmt.Errorf("%s: no perfbench detail line", path)
}
