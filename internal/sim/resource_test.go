package sim

import (
	"math"
	"testing"
)

func TestResourceSnapshotAccounting(t *testing.T) {
	r := NewResource("wire")

	// Three reservations: back-to-back, queued, and after a gap.
	s1, d1 := r.Reserve(0, 2) // [0,2), no wait
	if s1 != 0 || d1 != 2 {
		t.Fatalf("first reservation [%g,%g), want [0,2)", s1, d1)
	}
	s2, d2 := r.Reserve(1, 3) // ready at 1 but queued until 2 -> [2,5), wait 1
	if s2 != 2 || d2 != 5 {
		t.Fatalf("queued reservation [%g,%g), want [2,5)", s2, d2)
	}
	s3, d3 := r.Reserve(7, 1) // idle gap [5,7), then [7,8)
	if s3 != 7 || d3 != 8 {
		t.Fatalf("gapped reservation [%g,%g), want [7,8)", s3, d3)
	}

	st := r.Snapshot()
	if st.Name != "wire" {
		t.Errorf("snapshot name %q", st.Name)
	}
	if st.Reservations != 3 {
		t.Errorf("reservations = %d, want 3", st.Reservations)
	}
	if st.BusyTime != 6 {
		t.Errorf("busy = %g, want 6", st.BusyTime)
	}
	if st.QueueWait != 1 {
		t.Errorf("queue wait = %g, want 1", st.QueueWait)
	}
	if st.PeakBacklog != 1 {
		t.Errorf("peak backlog = %g, want 1", st.PeakBacklog)
	}
	if st.FirstStart != 0 || st.LastDone != 8 {
		t.Errorf("window [%g,%g], want [0,8]", st.FirstStart, st.LastDone)
	}

	// busy + idle == elapsed for any window covering the run.
	for _, elapsed := range []float64{8, 10, 100} {
		if busyIdle := st.BusyTime + st.IdleTime(elapsed); busyIdle != elapsed {
			t.Errorf("busy+idle = %g for elapsed %g", busyIdle, elapsed)
		}
	}
	if u := st.Utilization(10); u != 0.6 {
		t.Errorf("utilization = %g, want 0.6", u)
	}
	if u := st.Utilization(0); u != 0 {
		t.Errorf("utilization of empty window = %g", u)
	}

	// Snapshot is detached from later reservations.
	r.Reserve(8, 5)
	if st.BusyTime != 6 || st.Reservations != 3 {
		t.Errorf("snapshot mutated by later reservation: %+v", st)
	}
}

func TestResourceSnapshotNeverNegative(t *testing.T) {
	r := NewResource("cpu")
	r.Reserve(0, -3)  // negative duration clamps to zero
	r.Reserve(-2, 1)  // negative ready clamps to zero
	r.Reserve(0.5, 0) // zero-duration queued reservation
	st := r.Snapshot()
	if st.BusyTime < 0 || st.QueueWait < 0 || st.PeakBacklog < 0 {
		t.Errorf("negative counters: %+v", st)
	}
	if st.IdleTime(0.25) < 0 {
		t.Errorf("negative idle time")
	}
	if st.Reservations != 3 {
		t.Errorf("reservations = %d, want 3", st.Reservations)
	}
}

func TestResourceConsumerAccounting(t *testing.T) {
	r := NewResource("cpu")

	// Untagged and tagged reservations interleave; the tagged ones contend
	// FIFO with everything else (same next-free chain).
	r.Reserve(0, 2)                    // [0,2) untagged
	s, d := r.ReserveAs("rank1", 1, 3) // queued behind it -> [2,5)
	if s != 2 || d != 5 {
		t.Fatalf("tagged reservation [%g,%g), want [2,5)", s, d)
	}
	r.ReserveAs("rank2", 5, 1) // [5,6)
	r.ReserveAs("rank1", 6, 4) // [6,10)

	st := r.Snapshot()
	if st.BusyTime != 10 {
		t.Errorf("busy = %g, want 10", st.BusyTime)
	}
	if st.TaggedBusy != 8 {
		t.Errorf("tagged busy = %g, want 8", st.TaggedBusy)
	}
	if got := st.ByConsumer["rank1"]; got != 7 {
		t.Errorf("rank1 share = %g, want 7", got)
	}
	if got := st.ByConsumer["rank2"]; got != 1 {
		t.Errorf("rank2 share = %g, want 1", got)
	}
	var sum float64
	for _, v := range st.ByConsumer {
		sum += v
	}
	if math.Abs(sum-st.TaggedBusy) > 1e-12 {
		t.Errorf("consumer shares sum %g != tagged busy %g", sum, st.TaggedBusy)
	}
	if st.TaggedBusy > st.BusyTime {
		t.Errorf("tagged busy %g exceeds total busy %g", st.TaggedBusy, st.BusyTime)
	}

	// The snapshot's consumer map is detached from later reservations.
	r.ReserveAs("rank2", 10, 5)
	if st.ByConsumer["rank2"] != 1 || st.TaggedBusy != 8 {
		t.Errorf("snapshot mutated by later tagged reservation: %+v", st)
	}

	// Perturbed durations bill the booked (stretched) time to the consumer,
	// keeping busy/idle partitioning exact under fault injection.
	p := NewResource("cpu2")
	p.Perturb = func(start, dur float64) float64 { return 2 * dur }
	p.ReserveAs("slow", 0, 3)
	ps := p.Snapshot()
	if ps.ByConsumer["slow"] != 6 || ps.TaggedBusy != 6 || ps.BusyTime != 6 {
		t.Errorf("perturbed consumer accounting: %+v", ps)
	}

	// Untagged-only resources never allocate the map.
	q := NewResource("plain")
	q.Reserve(0, 1)
	if qs := q.Snapshot(); qs.ByConsumer != nil || qs.TaggedBusy != 0 {
		t.Errorf("untagged resource grew consumer state: %+v", qs)
	}
}
