package commoverlap

// Golden digests: SHA-256 of the test-size outputs of every path that
// builds a simulated machine — the paper's figures and kernel tables, the
// topology, noise, ablation, ML-workload and progress-engine experiments,
// single tuner cells, a cached tuner search and the model checker's
// schedule transcripts. The simulator is deterministic,
// so a refactor that changes none of the physics leaves every digest
// exactly as committed. Re-record with
//
//	go test -run TestGoldenDigests -update .
//
// and name every digest that moved, and why, in the change description.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"commoverlap/internal/bench"
	"commoverlap/internal/cache"
	"commoverlap/internal/check"
	"commoverlap/internal/mpi"
	"commoverlap/internal/tune"
	"commoverlap/internal/workload"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/golden_digests.json for this GOARCH")

const goldenPath = "testdata/golden_digests.json"

// goldenN is the matrix dimension of the kernel tables and the ablation at
// test size: small enough to keep the whole digest set within seconds.
const goldenN = 240

// goldenSystems is the one goldenN-sized system Tables I and II run on.
var goldenSystems = []bench.System{{Name: "golden", N: goldenN, Ne: goldenN / 5}}

// goldenArtifacts renders each guarded output to bytes.
var goldenArtifacts = []struct {
	name   string
	render func(buf *bytes.Buffer) error
}{
	{"bench.Topo", func(buf *bytes.Buffer) error {
		res, err := bench.Topo(buf)
		if err != nil {
			return err
		}
		return res.WriteCSV(buf)
	}},
	{"bench.Noise", func(buf *bytes.Buffer) error {
		res, err := bench.Noise(buf)
		fmt.Fprintf(buf, "%+v\n", res)
		return err
	}},
	{"bench.Fig3", func(buf *bytes.Buffer) error {
		res, err := bench.Fig3(buf)
		if err != nil {
			return err
		}
		return res.WriteCSV(buf)
	}},
	{"bench.Fig5", func(buf *bytes.Buffer) error {
		res, err := bench.Fig5(buf)
		if err != nil {
			return err
		}
		return res.WriteCSV(buf)
	}},
	{"bench.Fig6", func(buf *bytes.Buffer) error {
		res, err := bench.Fig6(buf)
		if err != nil {
			return err
		}
		return res.WriteCSV(buf)
	}},
	{"bench.Ablate", func(buf *bytes.Buffer) error {
		rows, err := bench.Ablate(buf, goldenN)
		fmt.Fprintf(buf, "%+v\n", rows)
		return err
	}},
	{"bench.Table1", func(buf *bytes.Buffer) error {
		rows, err := bench.Table1(buf, goldenSystems)
		fmt.Fprintf(buf, "%+v\n", rows)
		return err
	}},
	{"bench.Table2", func(buf *bytes.Buffer) error {
		rows, err := bench.Table2(buf, goldenSystems)
		fmt.Fprintf(buf, "%+v\n", rows)
		return err
	}},
	{"bench.Table3", func(buf *bytes.Buffer) error {
		rows, err := bench.Table3(buf, goldenN)
		fmt.Fprintf(buf, "%+v\n", rows)
		return err
	}},
	{"bench.Table4", func(buf *bytes.Buffer) error {
		rows, err := bench.Table4(buf, goldenN)
		fmt.Fprintf(buf, "%+v\n", rows)
		return err
	}},
	{"bench.Table5", func(buf *bytes.Buffer) error {
		rows, err := bench.Table5(buf, goldenN)
		fmt.Fprintf(buf, "%+v\n", rows)
		return err
	}},
	{"workload.Run", func(buf *bytes.Buffer) error {
		specs := []workload.Spec{
			{Pattern: workload.DataParallel, Nodes: 4, LaunchPPN: 2, PPN: 1, NDup: 2, Units: 4, Elems: 1 << 14, Overlap: true},
			{Pattern: workload.DataParallel, Nodes: 4, LaunchPPN: 2, NDup: 1, Units: 4, Elems: 1 << 14, Alg: mpi.AlgRing},
			{Pattern: workload.ZeRO, Nodes: 4, LaunchPPN: 2, PPN: 1, NDup: 2, Units: 4, Elems: 1 << 14, Overlap: true, Topo: "hier"},
			{Pattern: workload.ZeRO, Nodes: 4, LaunchPPN: 2, PPN: 1, NDup: 2, Units: 4, Elems: 1 << 14, Overlap: true, Topo: "hier", Progress: "rank1"},
			{Pattern: workload.Pipeline, Nodes: 4, LaunchPPN: 2, PPN: 1, NDup: 2, Units: 4, Elems: 1 << 14, Overlap: true},
			{Pattern: workload.Pipeline, Nodes: 4, LaunchPPN: 1, NDup: 2, Units: 4, Elems: 1 << 14, Overlap: true, Progress: "dma"},
		}
		for _, s := range specs {
			res, err := workload.Run(s)
			if err != nil {
				return err
			}
			fmt.Fprintf(buf, "%+v -> %+v\n", s, res)
		}
		return nil
	}},
	{"bench.MLWork", func(buf *bytes.Buffer) error {
		res, err := bench.MLWork(buf, true)
		if err != nil {
			return err
		}
		return res.WriteCSV(buf)
	}},
	{"bench.ProgressBench", func(buf *bytes.Buffer) error {
		res, err := bench.ProgressBench(buf, true)
		if err != nil {
			return err
		}
		return res.WriteCSV(buf)
	}},
	{"tune.Measure", func(buf *bytes.Buffer) error {
		cells := []struct {
			k tune.Kernel
			p tune.Params
		}{
			{cell("bcast", ""), tune.Params{NDup: 2, PPN: 1}},
			{cell("bcast", "hier"), tune.Params{NDup: 1, PPN: 2, BcastLongMsg: 1 << 30}},
			{cell("reduce", ""), tune.Params{NDup: 4, PPN: 2, ChunkBytes: 64 << 10}},
			{cell("reduce", "hier"), tune.Params{NDup: 2, PPN: 1, ReduceLongMsg: 1 << 30, EagerLimit: 1}},
			{cell("reduce", ""), tune.Params{NDup: 2, PPN: 2, Progress: "rank1"}},
			{cell("reduce", ""), tune.Params{NDup: 2, PPN: 2, Progress: "dma"}},
			{cell("allreduce", ""), tune.Params{NDup: 2, PPN: 2, Alg: mpi.AlgShift}},
			{cell("allreduce", "hier"), tune.Params{NDup: 2, PPN: 1, Alg: mpi.AlgRing}},
			{cell("dp", ""), tune.Params{NDup: 2, PPN: 1}},
			{cell("dp", "hier"), tune.Params{NDup: 2, PPN: 2, Progress: "dma"}},
			{cell("zero", ""), tune.Params{NDup: 2, PPN: 1, Progress: "rank1"}},
			{cell("zero", "hier"), tune.Params{NDup: 2, PPN: 2, ChunkBytes: 256 << 10}},
			{cell("pipeline", ""), tune.Params{NDup: 2, PPN: 2}},
			{cell("pipeline", "hier"), tune.Params{NDup: 1, PPN: 1, Progress: "dma"}},
		}
		for _, c := range cells {
			bw, err := tune.Measure(c.k, c.p, 4)
			if err != nil {
				return err
			}
			fmt.Fprintf(buf, "%s %+v %.17g\n", c.k.Name(), c.p, bw)
		}
		return nil
	}},
	{"tune.Search", func(buf *bytes.Buffer) error {
		// A store far smaller than the grid: the re-run recomputes the
		// cells it could not hold, and both tables must still match.
		store := cache.New(512)
		opts := tune.Options{
			Grid: tune.Grid{Name: "golden", NDups: []int{1, 2}, PPNs: []int{1, 2}, LaunchPPN: 2,
				Protocols: []tune.Params{{}}, Algs: []string{mpi.AlgAuto, mpi.AlgRing}},
			Kernels: []tune.Kernel{cell("reduce", ""), cell("allreduce", "hier")},
			Cache:   store,
		}
		for pass := 0; pass < 2; pass++ {
			tab, err := tune.Search(opts)
			if err != nil {
				return err
			}
			tab.GoVersion = "" // the toolchain is provenance, not a result
			if err := tab.WriteJSON(buf); err != nil {
				return err
			}
		}
		return nil
	}},
	{"check.Explore", func(buf *bytes.Buffer) error {
		fifo, _ := check.FindPolicy("fifo")
		random, _ := check.FindPolicy("random")
		check.Explore(check.Catalog(), []check.Policy{fifo, random}, 1, 17, func(r check.Result) {
			fmt.Fprintf(buf, "%s events=%d msgs=%d t=%.17g violations=%q\n",
				r.Schedule(), r.Events, r.Messages, r.FinalTime, r.Violations)
			for _, e := range r.Log.Events() {
				fmt.Fprintf(buf, "  %+v\n", e)
			}
		})
		return nil
	}},
}

// cell is a 1 MiB tuner kernel on 4 nodes.
func cell(op, topo string) tune.Kernel {
	return tune.Kernel{Op: op, Bytes: 1 << 20, Nodes: 4, Topo: topo}
}

func TestGoldenDigests(t *testing.T) {
	all := map[string]map[string]string{}
	raw, err := os.ReadFile(goldenPath)
	if err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%s: %v (record with -update)", goldenPath, err)
	}
	want, ok := all[runtime.GOARCH]
	if !ok && !*updateGolden {
		t.Skipf("no golden digests recorded for GOARCH=%s (float fusion may differ); record with -update", runtime.GOARCH)
	}

	got := make(map[string]string, len(goldenArtifacts))
	for _, a := range goldenArtifacts {
		var buf bytes.Buffer
		if err := a.render(&buf); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[a.name] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		all[runtime.GOARCH] = got
		out, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %d digests for GOARCH=%s", len(got), runtime.GOARCH)
		return
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, committed %s — an output changed", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed digest has no artifact", name)
		}
	}
}
