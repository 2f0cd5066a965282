package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetOrComputeBasics(t *testing.T) {
	s := New(0)
	calls := 0
	f := func() (float64, error) { calls++; return 42, nil }

	bw, hit, err := s.GetOrCompute("k1", f)
	if err != nil || hit || bw != 42 || calls != 1 {
		t.Fatalf("cold: bw=%g hit=%v err=%v calls=%d", bw, hit, err, calls)
	}
	bw, hit, err = s.GetOrCompute("k1", f)
	if err != nil || !hit || bw != 42 || calls != 1 {
		t.Fatalf("warm: bw=%g hit=%v err=%v calls=%d", bw, hit, err, calls)
	}
	if bw, ok := s.Get("k1"); !ok || bw != 42 {
		t.Fatalf("Get = %g, %v", bw, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get of absent key hit")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestErrorNotCached: a failing computation is shared with coalesced
// waiters but never stored, so the next request retries.
func TestErrorNotCached(t *testing.T) {
	s := New(0)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := s.GetOrCompute("k", func() (float64, error) { calls++; return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	bw, hit, err := s.GetOrCompute("k", func() (float64, error) { calls++; return 7, nil })
	if err != nil || hit || bw != 7 || calls != 2 {
		t.Fatalf("retry: bw=%g hit=%v err=%v calls=%d", bw, hit, err, calls)
	}
}

// TestSingleflightCoalesces: many concurrent requests for one missing key
// run the computation exactly once; everyone sees the same value.
func TestSingleflightCoalesces(t *testing.T) {
	s := New(0)
	var calls atomic.Int64
	release := make(chan struct{})
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]float64, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bw, _, err := s.GetOrCompute("hot", func() (float64, error) {
				calls.Add(1)
				<-release // hold the flight open so the others pile up
				return 3.25, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = bw
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, bw := range results {
		if bw != 3.25 {
			t.Fatalf("goroutine %d got %g", i, bw)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+coalesced", st, goroutines-1)
	}
}

// TestBoundedAdmissionThenRecompute: under a tiny byte bound only the
// first keys are admitted, and recomputing a key the store could not hold
// yields the byte-identical value — the bound is a performance event, not
// a correctness one.
func TestBoundedAdmissionThenRecompute(t *testing.T) {
	const held = 10
	s := New(held * (16 + valueBytes)) // room for ten 16-byte keys
	value := func(i int) float64 { return float64(i) * 1.0625 }
	key := func(i int) string { return fmt.Sprintf("%016x", i) }
	for i := 0; i < 300; i++ {
		if _, _, err := s.GetOrCompute(key(i), func() (float64, error) { return value(i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != held {
		t.Fatalf("stats %+v: want %d entries held", st, held)
	}
	// Every key — held or not — yields the identical value; only the held
	// ones skip the computation.
	for i := 0; i < 300; i++ {
		ran := false
		bw, hit, err := s.GetOrCompute(key(i), func() (float64, error) { ran = true; return value(i), nil })
		if err != nil || bw != value(i) {
			t.Fatalf("key %d: bw=%g err=%v, want %g", i, bw, err, value(i))
		}
		if want := i < held; hit != want || ran == want {
			t.Fatalf("key %d: hit=%v ran=%v, want hit=%v", i, hit, ran, want)
		}
	}
	// A held key still takes an overwrite when the store is full.
	s.Put(key(0), -1)
	if bw, _ := s.Get(key(0)); bw != -1 {
		t.Fatalf("overwrite on a full store: Get = %g", bw)
	}
}

// TestSingleEntryOverBudget: an entry larger than the whole bound is never
// admitted and is recomputed on every request, without wedging the store.
func TestSingleEntryOverBudget(t *testing.T) {
	s := New(1)
	calls := 0
	for i := 0; i < 2; i++ {
		bw, hit, err := s.GetOrCompute("key", func() (float64, error) { calls++; return 1, nil })
		if err != nil || hit || bw != 1 {
			t.Fatalf("request %d: bw=%g hit=%v err=%v", i, bw, hit, err)
		}
	}
	if st := s.Stats(); st.Entries != 0 || calls != 2 {
		t.Fatalf("stats %+v calls %d: want the oversized entry never held", st, calls)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("oversized entry was admitted")
	}
}

func TestPutOverwritesAndSeeds(t *testing.T) {
	s := New(0)
	s.Put("k", 1)
	if bw, ok := s.Get("k"); !ok || bw != 1 {
		t.Fatalf("seeded Get = %g, %v", bw, ok)
	}
	s.Put("k", 2)
	if bw, _ := s.Get("k"); bw != 2 {
		t.Fatalf("overwrite Get = %g", bw)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries %d after overwrite", st.Entries)
	}
}

// TestConcurrentMixedLoad hammers the store from many goroutines with an
// overlapping key set under -race: the invariant is that every read of a
// key observes that key's one deterministic value.
func TestConcurrentMixedLoad(t *testing.T) {
	s := New(256) // holds only some of the keys; the rest recompute mid-flight
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := i % 37
				want := float64(k) * 2.5
				bw, _, err := s.GetOrCompute(fmt.Sprintf("key-%d", k), func() (float64, error) { return want, nil })
				if err != nil || bw != want {
					t.Errorf("g%d i%d: bw=%g err=%v want %g", g, i, bw, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries == 0 || st.Entries >= 37 {
		t.Fatalf("stats %+v: want the bound to hold some but not all 37 keys", st)
	}
}
