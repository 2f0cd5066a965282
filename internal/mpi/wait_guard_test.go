package mpi

import (
	"strings"
	"testing"

	"commoverlap/internal/metrics"
)

// TestProbeRunawayPanics covers the probe twin of the PollWait runaway gap:
// a Probe for a message that is never sent used to spin in virtual time
// forever (the poll loop keeps generating events, so the deadlock detector
// never fires). Now it trips the MaxPollTime guard, naming the rank and the
// match pattern.
func TestProbeRunawayPanics(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.MaxPollTime = 0.01
	panicked := make(chan string, 1)
	w.Launch(func(p *Proc) {
		if p.Rank() == 0 {
			defer func() {
				if r := recover(); r != nil {
					panicked <- r.(string)
				}
			}()
			p.World().Probe(1, 42) // rank 1 never sends
		}
	})
	eng.Run()
	select {
	case msg := <-panicked:
		for _, want := range []string{"rank 0", "src 1", "tag 42", "no matching message"} {
			if !strings.Contains(msg, want) {
				t.Errorf("Probe panic %q does not name %q", msg, want)
			}
		}
	default:
		t.Fatal("runaway Probe did not panic")
	}
}

// TestProbeRunawayDisabled checks MaxPollTime = 0 still means "no guard":
// a probe that eventually matches after a long virtual wait succeeds.
func TestProbeRunawayDisabled(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.MaxPollTime = 0
	w.Launch(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			p.Sleep(2)
			c.Send(1, 3, Phantom(64))
		} else {
			st := c.Probe(0, 3)
			if st.Tag != 3 {
				t.Errorf("Probe status %+v", st)
			}
			c.Recv(0, 3, Phantom(64))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProbeSpinsMetric checks the probe poll loop is accounted.
func TestProbeSpinsMetric(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	reg := &metrics.Registry{}
	w.SetMetrics(reg)
	w.Launch(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			p.Sleep(1e-3)
			c.Send(1, 5, Phantom(64))
		} else {
			c.Probe(0, 5)
			c.Recv(0, 5, Phantom(64))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reg.Value("mpi.probe.spins", "") == 0 {
		t.Error("blocking Probe recorded no poll spins")
	}
}

// TestWaittimeoutExpiresThenCompletes checks a timed wait on a request's
// completion gate: an expired wait reports false, leaves the request open
// and the rank free to do other work, and a later wait on the same request
// still completes.
func TestWaittimeoutExpiresThenCompletes(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.Launch(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			p.Sleep(5e-3)
			c.Send(1, 8, Phantom(256))
			return
		}
		req := c.Irecv(0, 8, Phantom(256))
		if p.sp.WaitTimeout(req.done, 1e-3) {
			t.Error("timed wait completed before the sender even started")
		}
		if p.Now() < 1e-3 {
			t.Errorf("expired timed wait returned at %g, before its deadline", p.Now())
		}
		if req.Test() {
			t.Error("request completed while the sender was still sleeping")
		}
		if !p.sp.WaitTimeout(req.done, 10) {
			t.Error("second timed wait did not complete")
		}
		if p.Now() < 5e-3 {
			t.Errorf("receive completed at %g, before the send at 5 ms", p.Now())
		}
		if req.Status.Bytes != 256 {
			t.Errorf("Status = %+v", req.Status)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}
