package trace

import (
	"strings"
	"testing"
)

// openSpans counts the spans begun but not yet ended. A clean
// instrumentation pass leaves it at zero.
func openSpans(r *Recorder) int {
	n := 0
	for _, sp := range r.spans {
		if !sp.closed {
			n++
		}
	}
	return n
}

func TestPointAndSpan(t *testing.T) {
	var r Recorder
	r.Point(0, "post", 1.0)
	r.Begin(1, "xfer", 0.5)
	r.End(1, "xfer", 2.5)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Rank != 1 || evs[0].Start != 0.5 || evs[0].End != 2.5 {
		t.Errorf("span wrong: %+v", evs[0])
	}
	if evs[1].Label != "post" || evs[1].Start != evs[1].End {
		t.Errorf("point wrong: %+v", evs[1])
	}
	if openSpans(&r) != 0 {
		t.Errorf("%d spans still open", openSpans(&r))
	}
}

func TestEventsSorted(t *testing.T) {
	var r Recorder
	r.Point(2, "b", 3)
	r.Point(1, "a", 1)
	r.Point(1, "z", 3)
	evs := r.Events()
	if evs[0].Start != 1 || evs[1].Rank != 1 || evs[2].Rank != 2 {
		t.Errorf("not sorted: %+v", evs)
	}
}

// TestConcurrentSameLabelSpans is the regression test for the old
// (rank,label)-keyed recorder, which panicked ("span already open") when a
// rank had two same-label spans in flight — exactly the shape of the
// paper's N_DUP overlapped collectives, e.g. two overlapped Ibcast parts
// posted back to back on duplicated communicators.
func TestConcurrentSameLabelSpans(t *testing.T) {
	var r Recorder
	// Rank 0 posts two "ibcast 2MB" parts; both are in flight at once.
	a := r.Begin(0, "ibcast 2MB", 1.0)
	b := r.Begin(0, "ibcast 2MB", 1.5) // old code panicked here
	if a == b || a == 0 || b == 0 {
		t.Fatalf("span ids not distinct and nonzero: %v, %v", a, b)
	}
	if openSpans(&r) != 2 {
		t.Fatalf("open spans = %d, want 2", openSpans(&r))
	}
	r.EndSpan(b, 2.0)
	r.EndSpan(a, 3.0)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	// Both occurrences recorded with their own start/end.
	if evs[0].Start != 1.0 || evs[0].End != 3.0 {
		t.Errorf("first occurrence wrong: %+v", evs[0])
	}
	if evs[1].Start != 1.5 || evs[1].End != 2.0 {
		t.Errorf("second occurrence wrong: %+v", evs[1])
	}
}

// TestEndClosesOldestOccurrence pins the compatibility path: End(rank,
// label) without a handle closes occurrences FIFO.
func TestEndClosesOldestOccurrence(t *testing.T) {
	var r Recorder
	r.Begin(3, "op", 1)
	r.Begin(3, "op", 2)
	r.End(3, "op", 5) // closes the span begun at 1
	r.End(3, "op", 6) // closes the span begun at 2
	evs := r.Events()
	if evs[0].Start != 1 || evs[0].End != 5 || evs[1].Start != 2 || evs[1].End != 6 {
		t.Errorf("FIFO close order wrong: %+v", evs)
	}
}

func TestUnbalancedSpansPanic(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("End without Begin", func() {
		var r Recorder
		r.End(0, "x", 1)
	})
	expectPanic("EndSpan twice", func() {
		var r Recorder
		id := r.Begin(0, "y", 1)
		r.EndSpan(id, 2)
		r.EndSpan(id, 3)
	})
	expectPanic("EndSpan of invalid id", func() {
		var r Recorder
		r.EndSpan(7, 1)
	})
}

// TestEventsDeterministic: identical repeated point events must come back
// in insertion order every time — sort.Slice's unstable ordering broke
// golden-output tests here before.
func TestEventsDeterministic(t *testing.T) {
	build := func() *Recorder {
		var r Recorder
		// Many ties: same (start, rank, label) repeated, interleaved with
		// distinct events, enough of them that an unstable sort would
		// scramble some run.
		for i := 0; i < 50; i++ {
			r.Point(0, "tick", 1.0)
			r.Begin(0, "tick", 1.0)
			r.End(0, "tick", 1.0)
		}
		return &r
	}
	want := build().Events()
	for run := 0; run < 10; run++ {
		got := build().Events()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d event %d = %+v, want %+v (nondeterministic order)", run, i, got[i], want[i])
			}
		}
	}
}

func TestRender(t *testing.T) {
	var r Recorder
	r.Begin(0, "reduce", 0)
	r.End(0, "reduce", 100e-6)
	r.Begin(1, "bcast", 50e-6)
	r.End(1, "bcast", 150e-6)
	r.Point(0, "post", 10e-6)
	var sb strings.Builder
	r.Render(&sb, 40)
	out := sb.String()
	for _, want := range []string{"r0 reduce", "r1 bcast", "r0 post", "[", "]", "|", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRenderLongAndMultibyteLabels: the old byte-slice truncation
// (label[:24]) could split a multi-byte rune and hid the tail of long
// labels entirely; now the gutter widens to fit (up to a cap) and
// truncation is rune-safe with an ellipsis.
func TestRenderLongAndMultibyteLabels(t *testing.T) {
	var r Recorder
	long := "nonblk overlap N_DUP=4 reduce #3 of several (2MB)" // > cap
	r.Begin(0, long, 0)
	r.End(0, long, 1e-3)
	multi := strings.Repeat("μ", 30) // 2-byte runes straddling the cut
	r.Begin(1, multi, 0)
	r.End(1, multi, 1e-3)
	r.Begin(2, "short", 0)
	r.End(2, "short", 1e-3)

	var sb strings.Builder
	r.Render(&sb, 40)
	out := sb.String()
	if !strings.Contains(out, "…") {
		t.Errorf("long labels not truncated with ellipsis:\n%s", out)
	}
	if !strings.Contains(out, "r0 nonblk overlap N_DUP=4") {
		t.Errorf("rank prefix and label head lost:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.ContainsRune(line, '\uFFFD') {
			t.Errorf("split rune produced replacement char: %q", line)
		}
	}
	// Every rendered line must still be valid UTF-8 (no mid-rune cuts).
	if !strings.Contains(out, "μ") {
		t.Errorf("multi-byte label vanished:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	var r Recorder
	var sb strings.Builder
	r.Render(&sb, 40)
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty render wrong")
	}
}
