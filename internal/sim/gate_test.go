package sim

import (
	"strings"
	"testing"
)

// TestWaitAnyAliasedGates is the regression test for the stale-waiter bug:
// WaitAny used to append the process to each gate's waiter list even for
// aliased (duplicate) gates, and removeWaiter removed only the first
// occurrence on exit — the surviving registration let a later Fire
// spuriously resume the process while it was parked elsewhere.
func TestWaitAnyAliasedGates(t *testing.T) {
	eng := NewEngine()
	g1, g2, g3 := eng.NewGate(), eng.NewGate(), eng.NewGate()
	eng.Spawn("waiter", func(p *Proc) {
		if idx := p.WaitAny(g1, g2, g2); idx != 0 {
			t.Errorf("WaitAny = %d, want 0 (g1 fired first)", idx)
		}
		// Park elsewhere. Before the fix, the stale registration on g2
		// resumed this Wait when g2 fired, long before g3 did.
		p.Wait(g3)
		if !g3.Fired() {
			t.Errorf("woke from Wait(g3) at t=%g before g3 fired", p.Now())
		}
	})
	eng.Spawn("driver", func(p *Proc) {
		p.Sleep(1)
		g1.Fire()
		p.Sleep(1)
		g2.Fire() // must not wake the waiter: it deregistered from g2
		p.Sleep(1)
		g3.Fire()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWaitAnySameGateTwice checks that a fully aliased gate list (every
// entry the same gate) registers the waiter once and wakes exactly once.
func TestWaitAnySameGateTwice(t *testing.T) {
	eng := NewEngine()
	g := eng.NewGate()
	eng.Spawn("waiter", func(p *Proc) {
		if idx := p.WaitAny(g, g, g); idx != 0 {
			t.Errorf("WaitAny = %d, want 0", idx)
		}
		if p.Now() != 1 {
			t.Errorf("woke at t=%g, want 1", p.Now())
		}
	})
	eng.Spawn("driver", func(p *Proc) {
		p.Sleep(1)
		if len(g.waiters) != 1 {
			t.Errorf("aliased WaitAny registered %d waiters, want 1", len(g.waiters))
		}
		g.Fire()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitTimeoutFiresFirst(t *testing.T) {
	eng := NewEngine()
	g := eng.NewGate()
	eng.Spawn("waiter", func(p *Proc) {
		if !p.WaitTimeout(g, 10) {
			t.Error("WaitTimeout = false, want true (gate fired before deadline)")
		}
		if p.Now() != 2 {
			t.Errorf("resumed at t=%g, want 2 (the fire time, not the deadline)", p.Now())
		}
	})
	eng.Spawn("driver", func(p *Proc) {
		p.Sleep(2)
		g.Fire()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	eng := NewEngine()
	g := eng.NewGate()
	g4 := eng.NewGate()
	eng.Spawn("waiter", func(p *Proc) {
		if p.WaitTimeout(g, 1) {
			t.Error("WaitTimeout = true, want false (gate never fired)")
		}
		if p.Now() != 1 {
			t.Errorf("timed out at t=%g, want 1", p.Now())
		}
		// The timed-out waiter must have deregistered: g firing now must
		// not disturb this later park.
		p.Wait(g4)
		if !g4.Fired() {
			t.Errorf("woke from Wait(g4) at t=%g before it fired", p.Now())
		}
	})
	eng.Spawn("driver", func(p *Proc) {
		p.Sleep(2)
		g.Fire() // after the timeout: must wake nobody
		p.Sleep(1)
		g4.Fire()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitTimeoutAlreadyFiredAndPoll(t *testing.T) {
	eng := NewEngine()
	g, unfired := eng.NewGate(), eng.NewGate()
	eng.Spawn("p", func(p *Proc) {
		g.Fire()
		if !p.WaitTimeout(g, 5) {
			t.Error("WaitTimeout on fired gate = false, want true")
		}
		if p.WaitTimeout(unfired, 0) {
			t.Error("WaitTimeout with d<=0 on unfired gate = true, want false")
		}
		if p.Now() != 0 {
			t.Errorf("polling WaitTimeout advanced the clock to %g", p.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestReservePerturb checks that an installed perturbation stretches the
// booked duration, feeds the accounting, and keeps FIFO semantics.
func TestReservePerturb(t *testing.T) {
	r := NewResource("cpu")
	r.Perturb = func(start, dur float64) float64 { return dur * 2 }
	start, done := r.Reserve(1, 3)
	if start != 1 || done != 7 {
		t.Errorf("perturbed Reserve = (%g, %g), want (1, 7)", start, done)
	}
	if bt := r.BusyTime(); bt != 6 {
		t.Errorf("BusyTime = %g, want the perturbed 6", bt)
	}
	// The next reservation queues behind the stretched one.
	start, done = r.Reserve(2, 1)
	if start != 7 || done != 9 {
		t.Errorf("second Reserve = (%g, %g), want (7, 9)", start, done)
	}
	// Negative perturbation results clamp to zero.
	r.Perturb = func(start, dur float64) float64 { return -5 }
	start, done = r.Reserve(20, 1)
	if start != 20 || done != 20 {
		t.Errorf("clamped Reserve = (%g, %g), want (20, 20)", start, done)
	}
}

// TestWaitTimeoutDeadlockDiagnosis makes sure a process parked in a timed
// wait still shows up in deadlock reports with a useful label. (It cannot
// deadlock by itself — the deadline always arrives — so this only checks
// the label constant matches what LiveProcs renders mid-run.)
func TestWaitTimeoutBlockedLabel(t *testing.T) {
	eng := NewEngine()
	g := eng.NewGate()
	eng.Spawn("w", func(p *Proc) {
		p.WaitTimeout(g, 2)
	})
	eng.Spawn("observer", func(p *Proc) {
		p.Sleep(1)
		names := eng.LiveProcs()
		found := false
		for _, n := range names {
			if strings.Contains(n, "gate-timeout") {
				found = true
			}
		}
		if !found {
			t.Errorf("LiveProcs = %v, want one blocked on gate-timeout", names)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitAllOrderIndependent(t *testing.T) {
	e := NewEngine()
	g1, g2, g3 := e.NewGate(), e.NewGate(), e.NewGate()
	var at float64
	e.Spawn("waiter", func(p *Proc) {
		p.WaitAll(g3, g1, g2) // waits in given order; must still finish at max
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(1)
		g2.Fire()
		p.Sleep(1)
		g3.Fire()
		p.Sleep(1)
		g1.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Errorf("WaitAll finished at %g want 3", at)
	}
}

func TestGateOnFireAfterFiredRunsInline(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	ran := false
	e.Spawn("a", func(p *Proc) {
		g.Fire()
		g.OnFireArg(func(any) { ran = true }, nil)
		if !ran {
			t.Error("OnFireArg on fired gate did not run inline")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
