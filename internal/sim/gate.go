package sim

// Gate is a one-shot completion signal. Processes block on it with Wait (or
// WaitAny); Fire releases all current and future waiters. Gates also carry
// lightweight callbacks that run inline at fire time, which is how derived
// events (e.g. "message delivered, enqueue it at the receiver") are chained
// without spawning a process per hop.
type Gate struct {
	eng     *Engine
	fired   bool
	t       float64 // fire time, valid once fired
	waiters []*Proc
	cbs     []gateCB
}

// gateCB is one registered fire callback: a static function plus its
// argument. Hot paths register callbacks without allocating a closure per
// registration — the function value is a package-level variable and the
// argument is an object the caller already owns.
type gateCB struct {
	fn  func(any)
	arg any
}

// NewGate returns an unfired gate, recycled from the engine's free list when
// one is available. Recycled gates keep their waiter and callback slice
// capacity, so steady-state gate churn allocates nothing.
func (e *Engine) NewGate() *Gate {
	if n := len(e.gatePool); n > 0 {
		g := e.gatePool[n-1]
		e.gatePool[n-1] = nil
		e.gatePool = e.gatePool[:n-1]
		return g
	}
	return &Gate{eng: e}
}

// FreeGate returns a gate to the engine's free list for reuse by a later
// NewGate. The caller must guarantee no reference to the gate survives: it
// has fired (or will never fire), its waiters have been woken, and nobody
// will call Wait/OnFireArg/Fired on it again. The MPI request pool is the
// intended caller; misuse shows up as a waiter parked forever on a recycled
// gate, which Engine.Run reports as a deadlock.
func (e *Engine) FreeGate(g *Gate) {
	g.fired = false
	g.t = 0
	for i := range g.waiters {
		g.waiters[i] = nil
	}
	g.waiters = g.waiters[:0]
	for i := range g.cbs {
		g.cbs[i] = gateCB{}
	}
	g.cbs = g.cbs[:0]
	e.gatePool = append(e.gatePool, g)
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// FiredAt returns the virtual time the gate fired. It is only meaningful
// once Fired is true.
func (g *Gate) FiredAt() float64 { return g.t }

// Fire releases the gate at the current virtual time. Firing an already
// fired gate is a no-op. Callbacks run inline, in registration order, before
// any waiter resumes.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	g.t = g.eng.now
	// Detach the callback list before running it (a callback registering on
	// this gate re-enters OnFireArg, which runs immediately once fired), then
	// hand the cleared backing array back so a recycled gate keeps capacity.
	cbs := g.cbs
	g.cbs = nil
	for _, cb := range cbs {
		cb.fn(cb.arg)
	}
	for i := range cbs {
		cbs[i] = gateCB{}
	}
	g.cbs = cbs[:0]
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		// wakeNoLater, not wakeAt: a waiter in a timed wait (WaitTimeout)
		// parks with its deadline wakeup already scheduled, and firing the
		// gate must pull that wakeup forward to now.
		g.eng.wakeNoLater(g.eng.now, w)
	}
	for i := range ws {
		ws[i] = nil
	}
	g.waiters = ws[:0]
}

// OnFireArg registers cb(arg) to run when the gate fires. Passing a
// package-level function value plus an argument the caller already owns
// allocates nothing: the argument travels in the callback slot rather than
// a captured closure environment. If the gate has already fired, cb runs
// immediately. Callbacks must not block: they execute inside whatever
// process happens to fire the gate.
func (g *Gate) OnFireArg(cb func(any), arg any) {
	if g.fired {
		cb(arg)
		return
	}
	g.cbs = append(g.cbs, gateCB{fn: cb, arg: arg})
}

// Wait blocks p until the gate fires. Returns immediately if already fired.
func (p *Proc) Wait(g *Gate) {
	if p.step != nil {
		p.notGoroutine("Wait")
	}
	if g.fired {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park("gate")
}

// WaitAny blocks p until at least one of the gates fires and returns the
// index of the first fired gate (lowest index wins when several have fired).
// An empty gate list returns -1 immediately. The gate list may contain
// duplicates (aliased gates): each distinct gate registers the waiter once,
// and every registration is removed on wake, so no stale waiter survives to
// spuriously resume the process from a later park.
func (p *Proc) WaitAny(gates ...*Gate) int {
	if p.step != nil {
		p.notGoroutine("WaitAny")
	}
	for i, g := range gates {
		if g.fired {
			return i
		}
	}
	if len(gates) == 0 {
		return -1
	}
	for i, g := range gates {
		if dupGate(gates[:i], g) {
			continue
		}
		g.waiters = append(g.waiters, p)
	}
	p.park("gate-any")
	idx := -1
	for i, g := range gates {
		if g.fired && idx < 0 {
			idx = i
		}
		if !g.fired && !dupGate(gates[:i], g) {
			g.removeWaiter(p)
		}
	}
	if idx < 0 {
		panic("sim: WaitAny woke with no fired gate")
	}
	return idx
}

// dupGate reports whether g already appears in the prefix (gate lists are
// short, so the quadratic scan beats allocating a set).
func dupGate(prefix []*Gate, g *Gate) bool {
	for _, h := range prefix {
		if h == g {
			return true
		}
	}
	return false
}

// removeWaiter removes every registration of p from the waiter list, so a
// process that registered more than once (or is being cleaned up defensively)
// cannot be left behind as a stale waiter.
func (g *Gate) removeWaiter(p *Proc) {
	out := g.waiters[:0]
	for _, w := range g.waiters {
		if w != p {
			out = append(out, w)
		}
	}
	for i := len(out); i < len(g.waiters); i++ {
		g.waiters[i] = nil
	}
	g.waiters = out
}

// WaitTimeout blocks p until the gate fires or d seconds of virtual time
// pass, whichever comes first, and reports whether the gate fired. A
// non-positive d polls: it returns the gate's current state without
// blocking. The deadline wakeup is booked before parking; a gate firing
// earlier pulls the wakeup forward (Fire uses wakeNoLater), and a timeout
// deregisters the waiter so the gate's eventual Fire cannot spuriously
// resume the process from a later park.
func (p *Proc) WaitTimeout(g *Gate, d float64) bool {
	if p.step != nil {
		p.notGoroutine("WaitTimeout")
	}
	if g.fired {
		return true
	}
	if d <= 0 {
		return false
	}
	g.waiters = append(g.waiters, p)
	p.eng.wakeAt(p.eng.now+d, p)
	p.swap("gate-timeout")
	if !g.fired {
		g.removeWaiter(p)
		return false
	}
	return true
}

// WaitAll blocks p until every gate has fired.
func (p *Proc) WaitAll(gates ...*Gate) {
	for _, g := range gates {
		p.Wait(g)
	}
}
