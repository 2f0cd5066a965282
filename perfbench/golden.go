package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// goldenPath holds the expected output digests and exact counts, relative
// to the checkout root.
const goldenPath = "perfbench/golden.json"

// goldenArch is one architecture's expectations. Digests and counts are
// keyed by goarch because FMA fusion can move float bits elsewhere; the
// environment they were recorded in is kept for reference.
type goldenArch struct {
	Env     envRecord         `json:"env"`
	Digests map[string]string `json:"digests"`
	Counts  map[string]int64  `json:"counts"`
	// recording makes every check store its value instead of comparing.
	recording bool
}

type golden map[string]*goldenArch

func loadGolden() (golden, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// arch returns this architecture's expectations; an architecture with none
// recorded gets an empty entry, so every check reports what is missing.
func (g golden) arch() *goldenArch {
	if a := g[runtime.GOARCH]; a != nil {
		return a
	}
	return &goldenArch{}
}

// record runs every experiment, the tune-quick pass and every probe once,
// stores their digests and counts for this goarch, and rewrites the file.
// Outputs that fail a check that does not depend on the golden file (the
// committed TUNING.json, a warm hit ratio) abort the recording.
func record(gold golden) error {
	rep := passReport{Layer: map[string]metric{}, Counts: map[string]int64{}, Spans: map[string]float64{}}
	g := &goldenArch{Env: currentEnv(), Digests: map[string]string{}, Counts: map[string]int64{}, recording: true}
	want, err := os.ReadFile(tuningPath)
	if err != nil {
		return err
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		runOps(&rep, g, workloads[n], want)
	}
	if err := runProbes(&rep, g, 1); err != nil {
		return err
	}
	for k, v := range rep.Counts {
		g.Counts[k] = v
	}
	if rep.Failed > 0 {
		return fmt.Errorf("not recording: %d operations failed: %v", rep.Failed, rep.Errors)
	}
	gold[runtime.GOARCH] = g
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(gold); err != nil {
		return err
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d digests and %d counts for %s in %s\n",
		len(g.Digests), len(g.Counts), runtime.GOARCH, goldenPath)
	return nil
}
