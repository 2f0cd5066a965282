package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Spawn("a", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1.5)
		times = append(times, p.Now())
		p.Sleep(0)
		times = append(times, p.Now())
		p.Sleep(2.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1.5, 4.0}
	if len(times) != len(want) {
		t.Fatalf("got %v want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Errorf("times[%d] = %g want %g", i, times[i], want[i])
		}
	}
}

func TestInterleavingOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	emit := func(name string, p *Proc) {
		log = append(log, fmt.Sprintf("%s@%g", name, p.Now()))
	}
	e.Spawn("a", func(p *Proc) {
		emit("a", p)
		p.Sleep(2)
		emit("a", p)
		p.Sleep(2)
		emit("a", p)
	})
	e.Spawn("b", func(p *Proc) {
		emit("b", p)
		p.Sleep(3)
		emit("b", p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@0", "b@0", "a@2", "b@3", "a@4"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", log, want)
	}
}

func TestFIFOTiebreakAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(1)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("spawn order not preserved at equal times: %v", order)
		}
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childTime float64 = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(c *Proc) {
			childTime = c.Now()
			c.Sleep(1)
		})
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 5 {
		t.Errorf("child started at %g want 5", childTime)
	}
}

func TestGateWaitBeforeFire(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	var wokeAt float64 = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(g)
		wokeAt = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(3)
		g.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 3 {
		t.Errorf("woke at %g want 3", wokeAt)
	}
	if !g.Fired() || g.FiredAt() != 3 {
		t.Errorf("gate state: fired=%v at=%g", g.Fired(), g.FiredAt())
	}
}

func TestGateWaitAfterFire(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	var wokeAt float64 = -1
	e.Spawn("firer", func(p *Proc) {
		g.Fire()
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(7)
		p.Wait(g) // already fired: no block
		wokeAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 7 {
		t.Errorf("woke at %g want 7", wokeAt)
	}
}

func TestGateDoubleFireIsNoop(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	n := 0
	g.OnFireArg(func(any) { n++ }, nil)
	e.Spawn("firer", func(p *Proc) {
		g.Fire()
		p.Sleep(1)
		g.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}
	if g.FiredAt() != 0 {
		t.Errorf("fire time %g want 0 (first fire wins)", g.FiredAt())
	}
}

func TestGateCallbackChaining(t *testing.T) {
	e := NewEngine()
	g1 := e.NewGate()
	g2 := e.NewGate()
	g1.OnFireArg(func(any) { g2.Fire() }, nil)
	var wokeAt float64 = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(g2)
		wokeAt = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(2)
		g1.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 2 {
		t.Errorf("woke at %g want 2", wokeAt)
	}
}

func TestWaitAny(t *testing.T) {
	e := NewEngine()
	g1, g2, g3 := e.NewGate(), e.NewGate(), e.NewGate()
	var idx int = -2
	var at float64
	e.Spawn("waiter", func(p *Proc) {
		idx = p.WaitAny(g1, g2, g3)
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(4)
		g2.Fire()
		p.Sleep(1)
		g1.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 || at != 4 {
		t.Errorf("WaitAny = %d at %g, want 1 at 4", idx, at)
	}
	// The waiter must have been deregistered from g1 and g3.
	if len(g1.waiters) != 0 || len(g3.waiters) != 0 {
		t.Errorf("stale waiters: g1=%d g3=%d", len(g1.waiters), len(g3.waiters))
	}
}

func TestWaitAnyAlreadyFired(t *testing.T) {
	e := NewEngine()
	g1, g2 := e.NewGate(), e.NewGate()
	var idx int = -2
	e.Spawn("firer", func(p *Proc) { g2.Fire() })
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(1)
		idx = p.WaitAny(g1, g2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("WaitAny = %d want 1", idx)
	}
}

func TestWaitAnySimultaneousFires(t *testing.T) {
	// Two gates fire at the same instant before the waiter resumes; the
	// waiter must wake exactly once and report the lowest index.
	e := NewEngine()
	g1, g2 := e.NewGate(), e.NewGate()
	var idx int = -2
	wakes := 0
	e.Spawn("waiter", func(p *Proc) {
		idx = p.WaitAny(g1, g2)
		wakes++
		p.Sleep(1) // would panic on a stray resume
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(2)
		g2.Fire()
		g1.Fire() // same virtual instant
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 0 || wakes != 1 {
		t.Errorf("idx=%d wakes=%d, want 0 and 1", idx, wakes)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	e.Spawn("stuck", func(p *Proc) {
		p.Wait(g) // never fired
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource("wire")
	s1, d1 := r.Reserve(0, 10)
	if s1 != 0 || d1 != 10 {
		t.Errorf("first: [%g,%g] want [0,10]", s1, d1)
	}
	s2, d2 := r.Reserve(3, 5) // queued behind first
	if s2 != 10 || d2 != 15 {
		t.Errorf("second: [%g,%g] want [10,15]", s2, d2)
	}
	s3, d3 := r.Reserve(100, 1) // idle gap
	if s3 != 100 || d3 != 101 {
		t.Errorf("third: [%g,%g] want [100,101]", s3, d3)
	}
	if r.BusyTime() != 16 {
		t.Errorf("busy %g want 16", r.BusyTime())
	}
}

func TestResourceNegativeDuration(t *testing.T) {
	r := NewResource("x")
	_, d := r.Reserve(5, -1)
	if d != 5 {
		t.Errorf("negative duration should clamp to 0, done=%g", d)
	}
}

// Property: for any sequence of (ready, dur) reservations with nondecreasing
// ready times, intervals never overlap and starts are nondecreasing.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		ready, prevDone := 0.0, 0.0
		for i := 0; i < int(n%64)+1; i++ {
			ready += rng.Float64()
			dur := rng.Float64()
			start, done := r.Reserve(ready, dur)
			if start < prevDone || start < ready || done != start+dur {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: virtual clock is monotone for any random sleep workload, and two
// identical runs produce identical event logs (determinism).
func TestDeterminismProperty(t *testing.T) {
	runOnce := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var log []string
		last := -1.0
		for i := 0; i < 8; i++ {
			i := i
			delays := make([]float64, 5)
			for j := range delays {
				delays[j] = rng.Float64() * 10
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range delays {
					p.Sleep(d)
					if p.Now() < last {
						panic("clock went backwards")
					}
					last = p.Now()
					log = append(log, fmt.Sprintf("%d@%.9f", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		return log
	}
	f := func(seed int64) bool {
		a, b := runOnce(seed), runOnce(seed)
		return fmt.Sprint(a) == fmt.Sprint(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSleepNegativeClamp(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep moved clock to %g", p.Now())
		}
		p.SleepUntil(-3)
		if p.Now() != 0 {
			t.Errorf("past SleepUntil moved clock to %g", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(float64(i % 17))
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("count=%d want %d", count, n)
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}
