package simnet

import (
	"runtime"
	"testing"

	"commoverlap/internal/metrics"
	"commoverlap/internal/sim"
)

// TestTransferIsStackless pins the step-process transfer to the schedule of
// the goroutine pair it replaced: the same event counts (the ones
// perfbench/golden.json records for its 16 MiB probes), every event on a
// transfer half, no goroutine per transfer, and the same delivery times
// under loss and retransmission.
func TestTransferIsStackless(t *testing.T) {
	t.Run("events", func(t *testing.T) {
		for _, tc := range []struct {
			topo   string
			events int
		}{{"", 198}, {"hier", 135}} {
			eng := sim.NewEngine()
			per := map[string]int{}
			eng.SetEventHook(func(_ float64, p *sim.Proc) { per[p.Name]++ })
			cfg := DefaultConfig(8)
			var err error
			if cfg.Topo, err = TopoByName(tc.topo, 8); err != nil {
				t.Fatal(err)
			}
			n, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, delivered := n.Transfer(n.NewEndpoint(0), n.NewEndpoint(7), 16<<20)
			eng.Spawn("sink", func(p *sim.Proc) { p.Wait(delivered) })
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			total := 0
			for name, c := range per {
				total += c
				if name != "xfer-tx" && name != "xfer-rx" && name != "sink" {
					t.Errorf("topo %q: %d events went to %q", tc.topo, c, name)
				}
			}
			// The sink runs twice: at spawn and when the delivery gate fires.
			if total != tc.events || per["sink"] != 2 {
				t.Errorf("topo %q: %d events (%v), want %d with 2 for the sink", tc.topo, total, per, tc.events)
			}
		}
	})

	t.Run("no-goroutines", func(t *testing.T) {
		eng := sim.NewEngine()
		n, err := New(eng, DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]*Endpoint, 8)
		for i := range eps {
			eps[i] = n.NewEndpoint(i)
		}
		delivered := 0
		count := func(any) { delivered++ }
		base := runtime.NumGoroutine()
		const transfers = 64
		for i := 0; i < transfers; i++ {
			n.TransferFn(eps[i%8], eps[(i*3+1)%8], 1<<20, nil, nil, count, nil)
		}
		peak, events := base, 0
		eng.SetEventHook(func(float64, *sim.Proc) {
			events++
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if delivered != transfers {
			t.Fatalf("%d of %d transfers delivered", delivered, transfers)
		}
		if peak > base {
			t.Errorf("goroutines grew from %d to %d over %d events of %d concurrent transfers", base, peak, events, transfers)
		}
	})

	t.Run("loss", func(t *testing.T) {
		// Delivery times and event count recorded from the goroutine-pair
		// implementation under the same fault pattern. The zero-byte
		// transfer's only chunk is lost with the wire already clear, so it
		// backs off at once; the 2 MiB transfer's losses first wait for
		// their bytes to clear the wire.
		const (
			wantInter  = 0.0007297558709677418
			wantZero   = 6.7786e-05
			wantEvents = 50
		)
		fm := &lossPattern{}
		reg := &metrics.Registry{}
		eng := sim.NewEngine()
		events := 0
		eng.SetEventHook(func(float64, *sim.Proc) { events++ })
		n, err := New(eng, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		n.Faults, n.Metrics = fm, reg
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		var inter, zero float64
		n.TransferFn(a, b, 2<<20, nil, nil, func(any) { inter = eng.Now() }, nil)
		n.TransferFn(b, a, 0, nil, nil, func(any) { zero = eng.Now() }, nil)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		lost, retrans := reg.Value("net.chunks.lost", ""), reg.Value("net.chunks.retrans", "")
		if lost == 0 || retrans != lost {
			t.Errorf("lost %g, retransmitted %g: want the backoff/retransmit states exercised once per loss", lost, retrans)
		}
		if inter != wantInter || zero != wantZero || events != wantEvents {
			t.Errorf("delivered at %v and %v over %d events, want %v and %v over %d", inter, zero, events, wantInter, wantZero, wantEvents)
		}
	})
}

// lossPattern is a deterministic FaultModel: it loses the first two
// attempts of every third chunk with a doubling 50 us timeout, and jitters
// each chunk's leading edge by a repeating 0..0.9 us pattern.
type lossPattern struct {
	chunks, delays int
}

func (l *lossPattern) ChunkDelay(src, dst int) float64 {
	l.delays++
	return 0.3e-6 * float64(l.delays%4)
}

func (l *lossPattern) ChunkFate(src, dst, attempt int) (bool, float64) {
	if attempt == 0 {
		l.chunks++
	}
	if l.chunks%3 == 1 && attempt < 2 {
		return true, 50e-6 * float64(int(1)<<attempt)
	}
	return false, 0
}
