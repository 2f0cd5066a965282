package tune

import (
	"bytes"
	"testing"

	"commoverlap/internal/cache"
)

// TestSearchWithCacheByteIdentityAndWarmRerun is the headline contract of
// the result cache: a cached search emits a table byte-identical to an
// uncached one, and a second identical search against the same store
// re-simulates nothing — every cell is a cache hit — at 1 and at 8
// workers.
func TestSearchWithCacheByteIdentityAndWarmRerun(t *testing.T) {
	plain, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, plain)

	for _, workers := range []int{1, 8} {
		store := cache.New(0)
		cold, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: workers, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, cold), want) {
			t.Fatalf("workers=%d: cached cold table differs from uncached table", workers)
		}
		if cached, _, total := cold.CachedCount(); cached != 0 || total == 0 {
			t.Fatalf("workers=%d: cold search reported %d/%d cached cells", workers, cached, total)
		}
		warm, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: workers, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, warm), want) {
			t.Fatalf("workers=%d: warm cached table differs from cold table", workers)
		}
		cached, _, total := warm.CachedCount()
		if total == 0 || float64(cached) < 0.9*float64(total) {
			t.Fatalf("workers=%d: warm re-run hit %d of %d cells, want >= 90%%", workers, cached, total)
		}
		st := store.Stats()
		if st.Hits == 0 {
			t.Fatalf("workers=%d: store counted no hits: %+v", workers, st)
		}
	}
}

// TestSearchCacheBoundByteIdentity: a store too small to hold the grid
// admits only its first cells, the re-run hits only those and recomputes
// the rest, and the table is still byte-identical — the bound costs time,
// never correctness.
func TestSearchCacheBoundByteIdentity(t *testing.T) {
	const held = 5
	store := cache.New(held * (16 + 8)) // five 16-hex-digit keys and their values
	cold, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Entries; n != held {
		t.Fatalf("bounded store holds %d entries, want %d", n, held)
	}
	rerun, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, cold), marshal(t, rerun)) {
		t.Error("table differs after the bound forced recomputation")
	}
	if cached, _, _ := rerun.CachedCount(); cached != held {
		t.Errorf("re-run hit %d cells, want the %d the store held", cached, held)
	}
}

// TestInJobDedup: duplicate (kernel, cell-hash) pairs inside one grid —
// here the same kernel listed twice and a repeated NDup axis value — are
// simulated once; the duplicates copy the leader's result, and the table
// is byte-identical to what independent simulations would produce.
func TestInJobDedup(t *testing.T) {
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	grid := Grid{
		Name:      "dup",
		NDups:     []int{1, 2, 2}, // repeated axis value
		PPNs:      []int{1},
		LaunchPPN: 2,
		Protocols: []Params{{}},
	}
	tab, err := Search(Options{Grid: grid, Kernels: []Kernel{k, k}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 3 cells per kernel x 2 kernels = 6 cases; unique hashes: ndup 1 and 2
	// of one kernel = 2 leaders, so 4 duplicates.
	_, dup, total := tab.CachedCount()
	if total != 6 || dup != 4 {
		t.Fatalf("dedup resolved %d of %d cells, want 4 of 6", dup, total)
	}
	// Both entries carry the same cells; the duplicated-axis cell equals
	// its leader.
	e0, e1 := tab.Entries[0], tab.Entries[1]
	if e0.Cells[1].BW != e0.Cells[2].BW || e0.Cells[1].Hash != e0.Cells[2].Hash {
		t.Error("repeated axis value produced different cells")
	}
	if e0.BestBW != e1.BestBW || e0.Best != e1.Best {
		t.Error("duplicate kernels tuned to different winners")
	}

	// The same grid measured without dedup (distinct kernels, no repeats)
	// produces the same numbers for the shared cells.
	ref, err := Search(Options{Grid: Grid{Name: "ref", NDups: []int{1, 2}, PPNs: []int{1},
		LaunchPPN: 2, Protocols: []Params{{}}}, Kernels: []Kernel{k}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Entries[0].Cells[0].BW != e0.Cells[0].BW || ref.Entries[0].Cells[1].BW != e0.Cells[1].BW {
		t.Error("deduplicated cells differ from independently measured ones")
	}
}

// TestMeasureCached: the hit flag distinguishes simulation from lookup, a
// nil store degrades to Measure, and invalid cells are rejected before the
// store is touched.
func TestMeasureCached(t *testing.T) {
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	p := Params{NDup: 2, PPN: 1}
	store := cache.New(0)
	bw1, hit, err := MeasureCached(store, k, p, 4)
	if err != nil || hit || bw1 <= 0 {
		t.Fatalf("cold: bw=%g hit=%v err=%v", bw1, hit, err)
	}
	bw2, hit, err := MeasureCached(store, k, p, 4)
	if err != nil || !hit || bw2 != bw1 {
		t.Fatalf("warm: bw=%g hit=%v err=%v want bw=%g", bw2, hit, err, bw1)
	}
	plain, _, err := MeasureCached(nil, k, p, 4)
	if err != nil || plain != bw1 {
		t.Fatalf("nil store: bw=%g err=%v want %g", plain, err, bw1)
	}
	if _, _, err := MeasureCached(store, Kernel{Op: "gather", Bytes: 1, Nodes: 2}, p, 4); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, _, err := MeasureCached(store, k, Params{NDup: 0, PPN: 1}, 4); err == nil {
		t.Error("invalid params accepted")
	}
}
