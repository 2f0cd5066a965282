// Package cache is the in-process, content-addressed result store behind
// the "never simulate the same cell twice" optimization: a map from a
// cell's FNV-64a provenance hash (see tune.Params and its cell hashes) to
// the measured bandwidth.
//
// The simulator is fully deterministic — a cell's provenance hash covers
// everything that determines its result (machine calibration, kernel,
// parameters, launch width) — so any two requests with an identical hash
// must produce an identical number, and re-simulating the second one is
// pure waste. The store exploits that twice:
//
//   - Lookup: a completed cell is a hash-keyed map read, not a simulation.
//   - Singleflight: concurrent requests for the SAME in-flight cell
//     coalesce onto one simulation; the followers block until the leader
//     finishes and share its outcome.
//
// Unlike metrics.Registry and the other virtual-time machinery, a Store is
// safe for real concurrent use by the replica-pool workers of one process.
// One mutex guards the whole store: the largest one any command builds
// (the full tuning grid) holds a few thousand entries, each standing for a
// simulation that costs far more than the lock.
package cache

import "sync"

// valueBytes is what an entry's float64 value adds to its key bytes when
// a bounded store accounts its size.
const valueBytes = 8

// Store is a content-addressed result cache, optionally bounded in bytes.
// The zero value is not usable; call New.
type Store struct {
	maxBytes int64 // admission bound; non-positive = unbounded

	mu      sync.Mutex
	entries map[string]float64
	flights map[string]*flight
	bytes   int64 // key+value bytes of entries
	stats   Stats
}

// flight is one in-progress computation: the leader fills bw/err and closes
// done; coalesced followers wait on done and read the outcome.
type flight struct {
	done chan struct{}
	bw   float64
	err  error
}

var (
	sharedOnce sync.Once
	shared     *Store
)

// Shared returns the process-wide, unbounded store, created on first use.
// The experiment paths that re-measure tuned cells consult it, so a cell
// repeated within one run is simulated exactly once per process.
func Shared() *Store {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// New returns an empty store. A positive maxBytes bounds it: once the
// entries' key and value bytes would pass maxBytes, new keys are no longer
// admitted (stored ones stay), and a value that was not admitted is
// recomputed on its next request — determinism makes the bound a cost in
// time, never in correctness. A non-positive maxBytes leaves it unbounded.
func New(maxBytes int64) *Store {
	return &Store{
		maxBytes: maxBytes,
		entries:  make(map[string]float64),
		flights:  make(map[string]*flight),
	}
}

// Get returns the cached value for key. It counts as a hit or miss.
func (s *Store) Get(key string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw, ok := s.entries[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return bw, ok
}

// GetOrCompute returns the value for key, computing it with fn on a miss.
// Concurrent calls for the same missing key coalesce: exactly one runs fn,
// the rest block until it finishes and share the outcome (including an
// error — but an erroring flight is not cached, so the next request retries).
// The returned hit flag is true when the value was served without running
// fn in this call: a cache hit or a coalesced wait on another caller's
// computation.
func (s *Store) GetOrCompute(key string, fn func() (float64, error)) (bw float64, hit bool, err error) {
	s.mu.Lock()
	if bw, ok := s.entries[key]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		return bw, true, nil
	}
	if f, ok := s.flights[key]; ok {
		s.stats.Coalesced++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return 0, true, f.err
		}
		return f.bw, true, nil
	}
	// Miss with no flight: this caller leads.
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.stats.Misses++
	s.mu.Unlock()

	f.bw, f.err = fn()
	s.mu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		s.storeLocked(key, f.bw)
	}
	s.mu.Unlock()
	close(f.done)
	return f.bw, false, f.err
}

// Put stores a value (overwriting any previous one) and counts as neither
// hit nor miss. A new key is subject to the store's bound.
func (s *Store) Put(key string, bw float64) {
	s.mu.Lock()
	s.storeLocked(key, bw)
	s.mu.Unlock()
}

// storeLocked overwrites key's value, or admits key if the bound leaves
// room for it. The caller holds s.mu.
func (s *Store) storeLocked(key string, bw float64) {
	if _, ok := s.entries[key]; !ok {
		cost := int64(len(key)) + valueBytes
		if s.maxBytes > 0 && s.bytes+cost > s.maxBytes {
			return
		}
		s.bytes += cost
	}
	s.entries[key] = bw
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits      uint64 // served from a completed entry
	Misses    uint64 // led a computation (Get misses count here too)
	Coalesced uint64 // waited on another caller's in-flight computation
	Entries   int64  // entries currently held
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = int64(len(s.entries))
	return st
}
