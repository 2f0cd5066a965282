package sim

import (
	"fmt"
	"testing"
)

// spawnTied spawns n processes whose initial wakeups are all scheduled at
// t=0 — a guaranteed tie — and records the order they first run in.
func spawnTied(eng *Engine, n int, order *[]int) {
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("tied%d", i), func(p *Proc) {
			*order = append(*order, i)
		})
	}
}

func runOrder(t *testing.T, tb TieBreak, n int) []int {
	t.Helper()
	eng := NewEngine()
	eng.SetTieBreak(tb)
	var order []int
	spawnTied(eng, n, &order)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("ran %d of %d processes", len(order), n)
	}
	return order
}

// FIFO returns the default policy: among tied events, run the one scheduled
// first. It reproduces the engine's behavior with no policy installed.
func FIFO() TieBreak { return fifoTB{} }

type fifoTB struct{}

func (fifoTB) Name() string     { return "fifo" }
func (fifoTB) Choose(n int) int { return 0 }

func TestTieBreakFIFOMatchesDefault(t *testing.T) {
	def := runOrder(t, nil, 6)
	fifo := runOrder(t, FIFO(), 6)
	for i := range def {
		if def[i] != i || fifo[i] != i {
			t.Fatalf("default %v fifo %v, want ascending", def, fifo)
		}
	}
}

func TestTieBreakLIFOReverses(t *testing.T) {
	order := runOrder(t, LIFO(), 6)
	for i, v := range order {
		if v != len(order)-1-i {
			t.Fatalf("LIFO order %v, want exact reversal", order)
		}
	}
}

func TestTieBreakSeededIsReplayable(t *testing.T) {
	a := runOrder(t, Seeded(42), 8)
	b := runOrder(t, Seeded(42), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 not replayable: %v vs %v", a, b)
		}
	}
	// Different seeds should (for this seed pair) pick different orders.
	c := runOrder(t, Seeded(43), 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Logf("seeds 42 and 43 coincided (legal but unlucky): %v", a)
	}
}

func TestTieBreakPreservesClockMonotonicity(t *testing.T) {
	eng := NewEngine()
	eng.SetTieBreak(Seeded(7))
	last := -1.0
	eng.SetEventHook(func(tm float64, _ *Proc) {
		if tm < last {
			t.Errorf("clock went backwards: %g -> %g", last, tm)
		}
		last = tm
	})
	for i := 0; i < 5; i++ {
		eng.Spawn("p", func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Sleep(0.5)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if last < 0 {
		t.Fatal("event hook never ran")
	}
}

func TestLiveProcsReportsBlocked(t *testing.T) {
	eng := NewEngine()
	g := eng.NewGate()
	eng.Spawn("stuck", func(p *Proc) { p.Wait(g) })
	err := eng.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if eng.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", eng.Live())
	}
	procs := eng.LiveProcs()
	if len(procs) != 1 {
		t.Fatalf("LiveProcs() = %v, want one entry", procs)
	}
}

func TestResourceAudit(t *testing.T) {
	r := NewResource("x")
	var got [][3]float64
	r.Audit = func(ready, start, done float64) { got = append(got, [3]float64{ready, start, done}) }
	r.Reserve(0, 2)
	r.Reserve(1, 3) // queues behind the first: starts at 2
	if len(got) != 2 {
		t.Fatalf("audit saw %d reservations, want 2", len(got))
	}
	if got[1][1] != 2 || got[1][2] != 5 {
		t.Fatalf("second reservation audited as %v, want start 2 done 5", got[1])
	}
}
