package sim

import (
	"fmt"
	"strings"
	"testing"
)

// stepWorkload spawns a fixed workload of sleepers and two producer/consumer
// pairs. With mixed set, every other sleeper and one half of each pair run
// as step processes (a goroutine producer waking a step consumer and a step
// producer waking a goroutine consumer); otherwise all are goroutines. Both
// forms book the same wakeups in the same order, so they must dispatch the
// same events.
func stepWorkload(e *Engine, mixed bool) {
	delays := [][]float64{
		{1, 0, 2, 1},
		{1, 1, 0, 1, 1},
		{0, 2, 2},
		{2, 0, 0, 1},
		{1, 2, 1},
		{0, 0, 3},
	}
	for i, ds := range delays {
		name := fmt.Sprintf("sleep%d", i)
		if mixed && i%2 == 1 {
			j := 0
			e.SpawnStep(name, func(p *Proc) bool {
				if j == len(ds) {
					return true
				}
				p.WakeAt(p.Now() + ds[j])
				j++
				return false
			})
			continue
		}
		e.Spawn(name, func(p *Proc) {
			for _, d := range ds {
				p.Sleep(d)
			}
		})
	}
	spawnPair(e, "a", mixed, false)
	spawnPair(e, "b", false, mixed)
}

// spawnPair spawns a producer that makes an item every second and a
// consumer that takes each one and then works for half a second, parking
// whenever it has caught up. stepProd/stepCons choose the step form of each
// side; a goroutine consumer parks on a fresh gate per wait.
func spawnPair(e *Engine, tag string, stepProd, stepCons bool) {
	const rounds = 4
	items := 0
	waiting := false
	var gate *Gate
	var cons *Proc
	wake := func() {
		if !waiting {
			return
		}
		waiting = false
		if stepCons {
			cons.WakeAt(cons.Now())
		} else {
			gate.Fire()
		}
	}
	if stepProd {
		r := 0
		e.SpawnStep(tag+"-prod", func(p *Proc) bool {
			if r > 0 {
				items++
				wake()
			}
			if r == rounds {
				return true
			}
			r++
			p.WakeAt(p.Now() + 1)
			return false
		})
	} else {
		e.Spawn(tag+"-prod", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(1)
				items++
				wake()
			}
		})
	}
	if stepCons {
		r, working := 0, false
		cons = e.SpawnStep(tag+"-cons", func(p *Proc) bool {
			if working {
				working = false
				r++
			}
			if r == rounds {
				return true
			}
			if items <= r {
				waiting = true
				p.Park("items")
				return false
			}
			working = true
			p.WakeAt(p.Now() + 0.5)
			return false
		})
	} else {
		e.Spawn(tag+"-cons", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				for items <= r {
					waiting = true
					gate = e.NewGate()
					p.Wait(gate)
				}
				p.Sleep(0.5)
			}
		})
	}
}

// transcript runs the workload under policy tb and returns the hook's
// (time, name, ID) record of every dispatched event.
func transcript(t *testing.T, tb TieBreak, mixed bool) string {
	t.Helper()
	e := NewEngine()
	e.SetTieBreak(tb)
	var b strings.Builder
	e.SetEventHook(func(now float64, p *Proc) {
		fmt.Fprintf(&b, "%g %s #%d\n", now, p.Name, p.ID)
	})
	stepWorkload(e, mixed)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestStepMatchesGoroutineTranscript(t *testing.T) {
	policies := map[string]func() TieBreak{
		"default": func() TieBreak { return nil },
		"fifo":    FIFO,
		"lifo":    LIFO,
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		policies[fmt.Sprintf("seeded(%d)", seed)] = func() TieBreak { return Seeded(seed) }
	}
	for name, pol := range policies {
		ref := transcript(t, pol(), false)
		if got := transcript(t, pol(), true); got != ref {
			t.Errorf("%s: mixed transcript differs from the all-goroutine one\nmixed:\n%s\ngoroutine:\n%s", name, got, ref)
		}
		if n := strings.Count(ref, "\n"); n < 40 {
			t.Errorf("%s: only %d events; the workload should exercise many ties", name, n)
		}
	}
}

func TestStepBlockingCallPanics(t *testing.T) {
	calls := map[string]func(p *Proc){
		"Sleep":       func(p *Proc) { p.Sleep(1) },
		"SleepUntil":  func(p *Proc) { p.SleepUntil(1) },
		"Wait":        func(p *Proc) { p.Wait(p.eng.NewGate()) },
		"WaitAny":     func(p *Proc) { p.WaitAny(p.eng.NewGate()) },
		"WaitAll":     func(p *Proc) { p.WaitAll(p.eng.NewGate()) },
		"WaitTimeout": func(p *Proc) { p.WaitTimeout(p.eng.NewGate(), 1) },
	}
	for call, block := range calls {
		e := NewEngine()
		e.SpawnStep("other", func(*Proc) bool { return true })
		e.SpawnStep("stepper", func(p *Proc) bool {
			block(p)
			return true
		})
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			e.Run()
			return ""
		}()
		if !strings.Contains(msg, "stepper(#1)") {
			t.Errorf("%s from a step process: panic %q does not name stepper(#1)", call, msg)
		}
	}
}

func TestStepParkedForeverDeadlocks(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Sleep(1) })
	e.SpawnStep("stuck", func(p *Proc) bool {
		p.Park("nothing")
		return false
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil with a step process parked forever")
	}
	if want := "stuck(#1) blocked on nothing"; !strings.Contains(err.Error(), want) {
		t.Errorf("deadlock error %q does not contain %q", err, want)
	}
	if e.Live() != 1 {
		t.Errorf("Live() = %d, want 1", e.Live())
	}
}

func TestSpawnStepChurnAllocatesNothing(t *testing.T) {
	e := NewEngine()
	finish := func(*Proc) bool { return true }
	var allocs float64
	e.Spawn("spawner", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() {
			e.SpawnStep("churn", finish)
			p.Sleep(1)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("SpawnStep churn: %g allocs per spawn, want 0", allocs)
	}
}
