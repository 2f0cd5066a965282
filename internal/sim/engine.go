// Package sim provides a sequential, deterministic, process-oriented
// discrete-event simulator.
//
// There are two kinds of process, and exactly one process executes at any
// instant: the engine dispatches the process with the earliest pending
// event, the process runs until it blocks or books its next wakeup, and
// control returns to the engine. This cooperative scheme makes all shared
// state mutation race-free and the whole simulation deterministic: two runs
// with the same inputs produce identical virtual-time traces.
//
//   - A goroutine process (Spawn) is a body function on its own goroutine.
//     It blocks with Sleep, SleepUntil, gate waits and parks, and each
//     dispatch hands control across a channel to its goroutine and back.
//   - A step process (SpawnStep) is stackless: a step function the engine
//     calls inline on each of its events. A step books its next wakeup with
//     WakeAt or parks with Park and returns; it keeps its state in its own
//     closure or receiver, never on a stack. It costs no goroutine and no
//     channel handoff, which is why the fabric runs every transfer half as
//     one.
//
// Both kinds take IDs from one sequence, count in Live and LiveProcs, and
// are seen by the event hook and the tie-break policies alike.
//
// Virtual time is a float64 in seconds. The clock only moves when the engine
// pops an event; a running process acts at the engine's current time.
//
// The scheduler is written for host speed (see MODEL.md §8): the event heap
// is typed (no container/heap interface boxing, so pushing an event does not
// allocate), a goroutine process whose next wakeup is the earliest pending
// event dispatches it inline without the yield/resume channel round trip,
// and finished processes (goroutines and step processes alike) are kept on
// free lists and reused by later spawns. None of these change the schedule:
// the dispatch order remains the strict (time, sequence) order of the event
// heap.
package sim

import (
	"fmt"
	"sort"
)

// Engine is the simulation scheduler. Create one with NewEngine, add
// processes with Spawn or SpawnStep, then call Run to execute until no
// events remain.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64
	yield  chan struct{}
	live   map[*Proc]struct{}
	idseq  int
	closed bool
	tie    TieBreak
	hook   func(t float64, p *Proc)

	// pool holds the parked goroutines of finished processes, ready to be
	// re-armed by Spawn. Run releases them when the simulation ends so an
	// abandoned engine does not pin goroutines (and through them, itself).
	pool []*Proc

	// stepPool holds finished step processes, ready to be re-armed by
	// SpawnStep. They own no goroutine, so teardown just drops them.
	stepPool []*Proc

	// gatePool holds gates recycled via FreeGate, ready to be re-armed by
	// NewGate with their waiter/callback slice capacity intact. Owned by the
	// engine so parallel replicas (one engine each) never share free lists.
	gatePool []*Gate
}

type event struct {
	t   float64
	seq int64
	p   *Proc
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap over (time, sequence), hand-rolled so push
// and pop stay allocation-free (container/heap boxes every element in an
// interface). Each resident event's position is mirrored in its process's
// heapIdx, giving wakeNoLater O(log n) access instead of a linear scan.
type eventHeap []event

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].p.heapIdx = i
		i = parent
	}
	h[i] = ev
	ev.p.heapIdx = i
}

// down sifts the element at i toward the leaves and reports whether it moved.
func (h eventHeap) down(i int) bool {
	n := len(h)
	ev := h[i]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			c = r
		}
		if !eventLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].p.heapIdx = i
		i = c
	}
	h[i] = ev
	ev.p.heapIdx = i
	return i > start
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	root := old[0]
	n := len(old) - 1
	if n > 0 {
		old[0] = old[n]
		old[0].p.heapIdx = 0
	}
	old[n] = event{} // release the *Proc for GC
	*h = old[:n]
	if n > 1 {
		(*h).down(0)
	}
	root.p.heapIdx = -1
	return root
}

// fix re-establishes heap order after the element at i changed key.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		live:  make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTieBreak installs a policy for ordering same-time events. A nil policy
// (the default) is equivalent to FIFO and skips the tie-collection work in
// the hot loop. Install a policy before Run; changing it mid-run is legal
// but makes the schedule hard to describe. Installing any non-nil policy
// also disables the self-wake dispatch fast path, so every event flows
// through the engine loop where the policy can observe ties.
func (e *Engine) SetTieBreak(tb TieBreak) { e.tie = tb }

// SetEventHook installs an observer called once per dispatched event, after
// the clock has advanced to the event's time and before the process resumes.
// The hook must not call back into the engine. Checkers use it to assert
// virtual-clock monotonicity and to count scheduling decisions.
func (e *Engine) SetEventHook(h func(t float64, p *Proc)) { e.hook = h }

// Live reports the number of processes that have been spawned and not yet
// returned. After a Run that returned nil it is zero by construction.
func (e *Engine) Live() int { return len(e.live) }

// LiveProcs describes the still-live processes (name, id, and what they are
// blocked on), sorted, for teardown diagnostics.
func (e *Engine) LiveProcs() []string {
	names := make([]string, 0, len(e.live))
	for p := range e.live {
		names = append(names, fmt.Sprintf("%s(#%d) blocked on %s", p.Name, p.ID, p.blockedOn))
	}
	sort.Strings(names)
	return names
}

// Proc is a simulation process. The methods of a goroutine process must be
// called from the goroutine running its body function; those of a step
// process from its step function (WakeAt also from any running process).
type Proc struct {
	eng       *Engine
	ID        int
	Name      string
	resume    chan struct{}
	pending   bool // an event for this proc is scheduled and not yet delivered
	heapIdx   int  // position in the event heap while pending, else -1
	blockedOn string
	fn        func(p *Proc)      // body to run on next resume (pooled goroutines)
	step      func(p *Proc) bool // step function of a live step process, else nil
}

// Eng returns the engine this process belongs to.
func (p *Proc) Eng() *Engine { return p.eng }

// Now reports the current virtual time. It equals the engine's clock while
// the process is running.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn creates a process that starts at the current virtual time and runs
// fn. It may be called before Run or from inside a running process. The
// goroutine backing the process comes from the engine's free list when one
// is available; the returned *Proc is then a recycled object with a fresh
// ID and name, which is indistinguishable from a new process to everything
// but pointer-identity comparisons across process lifetimes.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn after Run returned")
	}
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		p.ID = e.idseq
		p.Name = name
		p.fn = fn
	} else {
		p = &Proc{eng: e, ID: e.idseq, Name: name, resume: make(chan struct{}), heapIdx: -1, fn: fn}
		go p.run()
	}
	e.idseq++
	e.live[p] = struct{}{}
	e.wakeAt(e.now, p)
	return p
}

// SpawnStep creates a step process that starts at the current virtual time.
// The engine calls step inline on each of the process's events: the first
// at spawn time, each later one at the wakeup the previous call booked with
// WakeAt. A call that books no wakeup must Park the process, which then
// sleeps until another process wakes it with WakeAt. Returning true finishes
// the process; it must not have a wakeup pending then. The process never
// runs on a goroutine of its own, so the blocking calls (Sleep, SleepUntil,
// Wait, WaitAny, WaitAll, WaitTimeout) panic from it. Like Spawn it may be
// called before Run or from inside a running process, and the returned *Proc
// may be a recycled object with a fresh ID and name.
func (e *Engine) SpawnStep(name string, step func(p *Proc) (done bool)) *Proc {
	if e.closed {
		panic("sim: SpawnStep after Run returned")
	}
	var p *Proc
	if n := len(e.stepPool); n > 0 {
		p = e.stepPool[n-1]
		e.stepPool[n-1] = nil
		e.stepPool = e.stepPool[:n-1]
		p.ID = e.idseq
		p.Name = name
	} else {
		p = &Proc{eng: e, ID: e.idseq, Name: name, heapIdx: -1}
	}
	p.step = step
	e.idseq++
	e.live[p] = struct{}{}
	e.wakeAt(e.now, p)
	return p
}

// runStep dispatches one event of step process p inline.
func (e *Engine) runStep(p *Proc) {
	p.blockedOn = ""
	if !p.step(p) {
		return
	}
	if p.pending {
		panic(fmt.Sprintf("sim: step process %s(#%d) finished with a wakeup pending", p.Name, p.ID))
	}
	p.step = nil
	delete(e.live, p)
	e.stepPool = append(e.stepPool, p)
}

// WakeAt schedules step process p to run at time t; times in the past run
// it at the current time. It is a no-op if p already has a wakeup pending.
// A step books its own next wakeup this way; any running process may also
// use it to wake a parked step process.
func (p *Proc) WakeAt(t float64) {
	if p.step == nil {
		panic(fmt.Sprintf("sim: WakeAt on %s(#%d), which is not a live step process", p.Name, p.ID))
	}
	p.eng.wakeAt(t, p)
}

// Park leaves step process p with no wakeup when its current step returns;
// it runs again only when another process calls its WakeAt. why is
// reported on deadlock.
func (p *Proc) Park(why string) {
	if p.step == nil {
		panic(fmt.Sprintf("sim: Park on %s(#%d), which is not a live step process", p.Name, p.ID))
	}
	p.blockedOn = why
}

// notGoroutine panics for a blocking call made from a step process.
func (p *Proc) notGoroutine(call string) {
	panic(fmt.Sprintf("sim: %s from step process %s(#%d); a step books its wakeups with WakeAt and Park", call, p.Name, p.ID))
}

// run is the persistent body of a process goroutine: execute the assigned
// function, park on the engine's free list, wait for the next assignment.
// A nil assignment is the release signal from Run's teardown.
func (p *Proc) run() {
	for {
		<-p.resume
		fn := p.fn
		if fn == nil {
			return
		}
		p.fn = nil
		fn(p)
		e := p.eng
		delete(e.live, p)
		e.pool = append(e.pool, p)
		e.yield <- struct{}{}
	}
}

// wakeAt schedules p to resume at time t (>= now). It is a no-op if p
// already has a pending wakeup, preserving the invariant that a parked
// process is resumed exactly once.
func (e *Engine) wakeAt(t float64, p *Proc) {
	if p.pending {
		return
	}
	if t < e.now {
		t = e.now
	}
	p.pending = true
	e.events.push(event{t: t, seq: e.seq, p: p})
	e.seq++
}

// wakeNoLater schedules p to resume no later than time t. Unlike wakeAt it
// pulls an already-pending wakeup earlier when that wakeup is scheduled
// after t — the case of a gate firing before the deadline of a timed wait
// (WaitTimeout), whose waiter parks with a wakeup already booked. The
// rescheduled event takes a fresh sequence number, so it orders FIFO among
// events newly scheduled at its new time.
func (e *Engine) wakeNoLater(t float64, p *Proc) {
	if !p.pending {
		e.wakeAt(t, p)
		return
	}
	if t < e.now {
		t = e.now
	}
	i := p.heapIdx
	if i < 0 || i >= len(e.events) || e.events[i].p != p {
		return
	}
	if t < e.events[i].t {
		e.events[i].t = t
		e.events[i].seq = e.seq
		e.seq++
		e.events.fix(i)
	}
}

// Run executes the simulation until no events remain. It returns an error if
// processes are still alive but permanently blocked (deadlock), listing them.
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if e.tie != nil && len(e.events) > 0 && e.events[0].t == ev.t {
			ev = e.breakTie(ev)
		}
		if ev.t < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %g -> %g", e.now, ev.t))
		}
		e.now = ev.t
		if e.hook != nil {
			e.hook(ev.t, ev.p)
		}
		ev.p.pending = false
		if ev.p.step != nil {
			e.runStep(ev.p)
			continue
		}
		ev.p.resume <- struct{}{}
		<-e.yield
	}
	e.closed = true
	// Release the pooled goroutines: a nil assignment makes run() return.
	for _, p := range e.pool {
		p.fn = nil
		p.resume <- struct{}{}
	}
	e.pool = nil
	e.stepPool = nil
	if len(e.live) > 0 {
		names := e.LiveProcs()
		return fmt.Errorf("sim: deadlock, %d live processes: %v", len(names), names)
	}
	return nil
}

// breakTie collects every event tied with ev at the same virtual time, asks
// the policy which to run, and reinserts the rest with their original
// sequence numbers so their relative (FIFO) order is preserved. Successive
// heap pops at equal times come off in ascending sequence order, so the
// candidate slice the policy indexes into is FIFO-ordered.
func (e *Engine) breakTie(ev event) event {
	ties := []event{ev}
	for len(e.events) > 0 && e.events[0].t == ev.t {
		ties = append(ties, e.events.pop())
	}
	k := e.tie.Choose(len(ties))
	if k < 0 || k >= len(ties) {
		panic(fmt.Sprintf("sim: tie-break chose %d of %d candidates", k, len(ties)))
	}
	for i := range ties {
		if i != k {
			e.events.push(ties[i])
		}
	}
	return ties[k]
}

// SleepUntil blocks the process until virtual time t. Times in the past
// resume immediately (at the current time).
func (p *Proc) SleepUntil(t float64) {
	if p.step != nil {
		p.notGoroutine("SleepUntil")
	}
	p.eng.wakeAt(t, p)
	p.swap("sleep")
}

// Sleep blocks the process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.eng.now + d)
}

// park blocks the process with no scheduled wakeup; something else must call
// wakeAt (via a Gate) to resume it. why is reported on deadlock.
func (p *Proc) park(why string) {
	p.swap(why)
}

// swap transfers control to the engine and waits to be resumed.
//
// Fast path: when the earliest pending event is this process's own wakeup
// and no tie-break policy is installed, the engine loop would immediately
// resume us — so dispatch the event inline and keep running, skipping both
// channel handoffs and the goroutine switch. This is safe because exactly
// one process executes at any instant (the engine goroutine is parked in
// <-yield while we run), and it preserves the schedule exactly: the event
// dispatched is the same one the engine loop would have chosen.
func (p *Proc) swap(why string) {
	e := p.eng
	if e.tie == nil && len(e.events) > 0 && e.events[0].p == p {
		ev := e.events.pop()
		e.now = ev.t // ev.t >= e.now: wakeAt clamps to the clock
		if e.hook != nil {
			e.hook(ev.t, p)
		}
		p.pending = false
		return
	}
	p.blockedOn = why
	e.yield <- struct{}{}
	<-p.resume
	p.blockedOn = ""
}
