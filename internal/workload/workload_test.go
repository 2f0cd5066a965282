package workload

import (
	"testing"

	"commoverlap/internal/mpi"
	"commoverlap/internal/runner"
)

// Patterns returns the pattern family in canonical order.
func Patterns() []Pattern { return []Pattern{DataParallel, ZeRO, Pipeline} }

// smallSpec is a quick variant of a pattern sized to run in milliseconds.
func smallSpec(pat Pattern, overlap bool) Spec {
	return Spec{
		Pattern:   pat,
		Nodes:     4,
		LaunchPPN: 2,
		NDup:      2,
		Units:     3,
		Elems:     3000,
		Overlap:   overlap,
	}
}

// TestPatternsOracle runs every pattern in both variants: the per-rank
// oracles inside the pattern bodies must pass (Run returns their first
// failure), and the blocking and overlapped schedules must produce
// byte-identical checksums — overlap is a schedule change, not a
// semantics change. Cases fan through the replica runner so `go test
// -race` exercises concurrent independent worlds.
func TestPatternsOracle(t *testing.T) {
	pats := Patterns()
	res, err := runner.Map(2*len(pats), 4, func(i int) (Result, error) {
		return Run(smallSpec(pats[i/2], i%2 == 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	for pi, pat := range pats {
		blocking, overlapped := res[2*pi], res[2*pi+1]
		if blocking.Checksum != overlapped.Checksum {
			t.Errorf("%s: blocking checksum %016x != overlapped %016x",
				pat, blocking.Checksum, overlapped.Checksum)
		}
		if blocking.Elapsed <= 0 || overlapped.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed (blocking %g, overlapped %g)",
				pat, blocking.Elapsed, overlapped.Elapsed)
		}
	}
}

// TestRunDeterminism: the same spec must produce bit-identical results
// across repeated runs and regardless of what else runs concurrently.
func TestRunDeterminism(t *testing.T) {
	spec := smallSpec(ZeRO, true)
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("repeat run differs: %+v vs %+v", first, again)
	}
}

// TestParkedPPN: with PPN below the launch width the surplus ranks park,
// and the active sub-communicator's result is still exact (the oracle
// inside the body uses the active size).
func TestParkedPPN(t *testing.T) {
	for _, pat := range Patterns() {
		spec := smallSpec(pat, true)
		spec.PPN = 1 // half the launched ranks park
		if _, err := Run(spec); err != nil {
			t.Errorf("%s parked: %v", pat, err)
		}
	}
}

// TestHierFabric runs every pattern on the hierarchical fabric so the
// NVLink-flavored preset's inter-node traffic crosses shared uplinks.
func TestHierFabric(t *testing.T) {
	for _, pat := range Patterns() {
		spec := smallSpec(pat, true)
		spec.Topo = "hier"
		if _, err := Run(spec); err != nil {
			t.Errorf("%s hier: %v", pat, err)
		}
	}
}

// TestForcedAlg: the data-parallel pattern honors a forced allreduce
// algorithm (the axis the tuner sweeps) with an unchanged checksum.
func TestForcedAlg(t *testing.T) {
	base := smallSpec(DataParallel, true)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	forced := base
	forced.Alg = mpi.AlgRing
	got, err := Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != ref.Checksum {
		t.Errorf("forced ring checksum %016x != auto %016x", got.Checksum, ref.Checksum)
	}
}

// TestSpecValidation: malformed specs fail fast.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Pattern: "sgd", Nodes: 2},
		{Pattern: DataParallel, Nodes: 0},
		{Pattern: ZeRO, Nodes: 2, LaunchPPN: 1, PPN: 2},
	}
	for _, s := range bad {
		if _, err := Run(s); err == nil {
			t.Errorf("spec %+v: expected error", s)
		}
	}
}
