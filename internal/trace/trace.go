// Package trace collects virtual-time event records from simulation runs
// and renders them as text timelines (the form of the paper's Fig. 6) or
// exports them as Chrome trace-event JSON loadable in Perfetto.
// It is deliberately tiny: an append-only recorder safe for the simulator's
// cooperative concurrency, span bookkeeping, and a Gantt-style renderer.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Event is one point or span on a rank's timeline.
type Event struct {
	Rank  int
	Label string
	Start float64 // seconds of virtual time
	End   float64 // == Start for point events
}

// SpanID identifies one open span returned by Begin, so that several spans
// with the same (rank, label) can be in flight at once — the paper's own
// workload does this: the N_DUP=4 overlapped collective parts of Fig. 6
// are four concurrent same-label operations on one rank. The zero SpanID
// is invalid.
type SpanID int

// Recorder accumulates events. The zero value is ready to use. The
// simulator runs exactly one process at a time, so no locking is needed;
// the Recorder is not safe for real concurrent use outside the simulator.
type Recorder struct {
	events []Event
	spans  []openSpan           // indexed by SpanID-1
	open   map[spanKey][]SpanID // FIFO queues of not-yet-closed occurrences
}

type openSpan struct {
	rank   int
	label  string
	start  float64
	closed bool
}

type spanKey struct {
	rank  int
	label string
}

// Point records an instantaneous event.
func (r *Recorder) Point(rank int, label string, t float64) {
	r.events = append(r.events, Event{Rank: rank, Label: label, Start: t, End: t})
}

// Begin opens a span and returns its handle. Any number of spans with the
// same (rank, label) may be open concurrently; each Begin creates a new
// occurrence. Close the span with EndSpan(id) — or with End(rank, label),
// which closes the oldest open occurrence of that (rank, label) and so
// stays a drop-in for callers that never overlap same-label spans.
func (r *Recorder) Begin(rank int, label string, t float64) SpanID {
	r.spans = append(r.spans, openSpan{rank: rank, label: label, start: t})
	id := SpanID(len(r.spans))
	if r.open == nil {
		r.open = make(map[spanKey][]SpanID)
	}
	k := spanKey{rank, label}
	r.open[k] = append(r.open[k], id)
	return id
}

// EndSpan closes the span identified by id at time t. Closing an invalid
// or already-closed handle panics, which surfaces instrumentation bugs
// immediately.
func (r *Recorder) EndSpan(id SpanID, t float64) {
	if id <= 0 || int(id) > len(r.spans) {
		panic(fmt.Sprintf("trace: EndSpan of invalid span id %d", id))
	}
	sp := &r.spans[id-1]
	if sp.closed {
		panic(fmt.Sprintf("trace: span %q on rank %d (id %d) closed twice", sp.label, sp.rank, id))
	}
	sp.closed = true
	k := spanKey{sp.rank, sp.label}
	for i, qid := range r.open[k] {
		if qid == id {
			r.open[k] = append(r.open[k][:i], r.open[k][i+1:]...)
			break
		}
	}
	r.events = append(r.events, Event{Rank: sp.rank, Label: sp.label, Start: sp.start, End: t})
}

// End closes the oldest open span with the given (rank, label) — FIFO
// within an occurrence set, which matches how overlapped same-label
// operations are posted and completed in the paper's pipelines. A rank
// with no such open span panics (unbalanced Begin/End).
func (r *Recorder) End(rank int, label string, t float64) {
	q := r.open[spanKey{rank, label}]
	if len(q) == 0 {
		panic(fmt.Sprintf("trace: span %q not open on rank %d", label, rank))
	}
	r.EndSpan(q[0], t)
}

// Events returns the recorded events sorted by (start, rank, label);
// events identical under that key keep their insertion order (stable
// sort), so repeated point events are deterministic across runs — the
// property golden-output tests rely on.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Len reports the number of closed events.
func (r *Recorder) Len() int { return len(r.events) }

// renderGutterCap bounds how wide the label gutter may grow.
const renderGutterCap = 40

// truncLabel truncates s to at most max runes, rune-safely, appending an
// ellipsis when anything was cut. Multi-byte labels never get split
// mid-rune.
func truncLabel(s string, max int) string {
	if utf8.RuneCountInString(s) <= max {
		return s
	}
	runes := []rune(s)
	return string(runes[:max-1]) + "…"
}

// Render draws the events as a text Gantt chart, one row per (rank, label)
// span, scaled to width columns between the earliest start and latest end.
// Point events render as a single '|'. The label gutter widens to fit the
// longest label, up to a cap; longer labels are truncated by rune with an
// ellipsis so the rank prefix survives and multi-byte runes never split.
func (r *Recorder) Render(w io.Writer, width int) {
	evs := r.Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	if width < 10 {
		width = 10
	}
	lo, hi := evs[0].Start, evs[0].End
	gutter := 24
	for _, e := range evs {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
		if n := utf8.RuneCountInString(fmt.Sprintf("r%d %s", e.Rank, e.Label)); n > gutter {
			gutter = n
		}
	}
	if gutter > renderGutterCap {
		gutter = renderGutterCap
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	col := func(t float64) int {
		c := int(float64(width-1) * (t - lo) / span)
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}
	for _, e := range evs {
		bar := make([]byte, width)
		for i := range bar {
			bar[i] = ' '
		}
		a, b := col(e.Start), col(e.End)
		if a == b {
			bar[a] = '|'
		} else {
			for i := a; i <= b; i++ {
				bar[i] = '='
			}
			bar[a], bar[b] = '[', ']'
		}
		label := truncLabel(fmt.Sprintf("r%d %s", e.Rank, e.Label), gutter)
		// Pad by rune count, not bytes: the ellipsis is multi-byte.
		pad := gutter - utf8.RuneCountInString(label)
		fmt.Fprintf(w, "%s%s %s %8.1fus\n", label, strings.Repeat(" ", pad), string(bar), (e.End-e.Start)*1e6)
	}
	fmt.Fprintf(w, "%-*s %s\n", gutter, "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%-*s %.1fus total\n", gutter, "", span*1e6)
}
