package metrics

import (
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var r Registry
	r.Inc("msgs", "eager")
	r.Add("msgs", "eager", 2)
	r.Add("bytes", "node0", 4096)

	r.Set("inflight", "", 3)
	r.AddGauge("inflight", "", 2) // level 5, peak 5
	r.AddGauge("inflight", "", -4)

	if got := r.Value("msgs", "eager"); got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	if got := r.Value("inflight", ""); got != 1 {
		t.Errorf("gauge = %g, want 1", got)
	}
	if got := r.Peak("inflight", ""); got != 5 {
		t.Errorf("gauge peak = %g, want 5", got)
	}
	if got := r.Value("never", "touched"); got != 0 {
		t.Errorf("untouched metric = %g", got)
	}

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap))
	}
	// Sorted by (name, label).
	if snap[0].Name != "bytes" || snap[1].Name != "inflight" || snap[2].Name != "msgs" {
		t.Errorf("snapshot order wrong: %+v", snap)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Inc("a", "")
	r.Add("a", "", 2)
	r.Set("g", "", 1)
	r.AddGauge("g", "", 1)
	if r.Value("a", "") != 0 || r.Peak("g", "") != 0 {
		t.Error("nil registry returned nonzero")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Errorf("nil registry snapshot: %v", snap)
	}
}

func TestNegativeCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter delta did not panic")
		}
	}()
	var r Registry
	r.Add("c", "", -1)
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	var r Registry
	r.Inc("x", "")
	r.Set("x", "", 1)
}

// TestSnapshotDeterministic feeds two registries identically through
// different insertion orders and requires byte-identical rendered output —
// the property golden-output tests and CI diffs rely on.
func TestSnapshotDeterministic(t *testing.T) {
	feed := func(r *Registry, perm []int) {
		ops := []func(){
			func() { r.Add("wire.bytes", "node0", 1024) },
			func() { r.Inc("mpi.eager", "rank1") },
			func() { r.Set("net.inflight", "", 2) },
			func() { r.AddGauge("lat", "", 5) },
			func() { r.Add("wire.bytes", "node1", 2048) },
		}
		for _, i := range perm {
			ops[i]()
		}
	}
	var a, b Registry
	feed(&a, []int{0, 1, 2, 3, 4})
	feed(&b, []int{4, 3, 2, 1, 0})

	var sa, sb strings.Builder
	a.WriteText(&sa)
	b.WriteText(&sb)
	if sa.String() != sb.String() {
		t.Errorf("renders differ:\n%s\nvs\n%s", sa.String(), sb.String())
	}
	if !strings.Contains(sa.String(), "wire.bytes{node0}") {
		t.Errorf("render missing labeled counter:\n%s", sa.String())
	}
}

func TestWriteTextEmpty(t *testing.T) {
	var sb strings.Builder
	(&Registry{}).WriteText(&sb)
	if !strings.Contains(sb.String(), "no metrics") {
		t.Errorf("empty render: %q", sb.String())
	}
}
