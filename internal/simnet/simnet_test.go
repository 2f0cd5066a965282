package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"commoverlap/internal/sim"
)

// run executes fn inside a fresh engine+net and returns the net.
func run(t *testing.T, nodes int, fn func(n *Net, p *sim.Proc)) *Net {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	eng.Spawn("driver", func(p *sim.Proc) { fn(n, p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestValidate(t *testing.T) {
	good := DefaultConfig(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.WireBandwidth = 0 },
		func(c *Config) { c.CPUCopyRate = -1 },
		func(c *Config) { c.ChunkBytes = 0 },
		func(c *Config) { c.WireLatency = -1 },
		func(c *Config) { c.ReduceRate = 0 },
		func(c *Config) { c.NodeFlops = 0 },
	}
	for i, mut := range cases {
		c := DefaultConfig(2)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTransferCompletes(t *testing.T) {
	var at float64
	run(t, 2, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, 1<<20)
		p.Wait(d)
		at = p.Now()
	})
	if at <= 0 {
		t.Fatalf("transfer finished at %g, want > 0", at)
	}
	// 1 MiB at best-case wire rate is ~85 us; with CPU stages it must be
	// between 1x and 5x of size/CPUCopyRate.
	min := float64(1<<20) / DefaultConfig(2).CPUCopyRate
	if at < min || at > 5*min {
		t.Errorf("1 MiB transfer took %g s, expected within [%g, %g]", at, min, 5*min)
	}
}

func TestInjectedBeforeDelivered(t *testing.T) {
	run(t, 2, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		inj, del := n.Transfer(a, b, 4<<20)
		p.Wait(del)
		if !inj.Fired() {
			t.Error("delivered fired before injected")
		}
		if inj.FiredAt() > del.FiredAt() {
			t.Errorf("injected at %g after delivered at %g", inj.FiredAt(), del.FiredAt())
		}
	})
}

func TestZeroByteTransferHasLatency(t *testing.T) {
	var at float64
	run(t, 2, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, 0)
		p.Wait(d)
		at = p.Now()
	})
	cfg := DefaultConfig(2)
	floor := cfg.WireLatency
	if at < floor {
		t.Errorf("0-byte transfer took %g, want >= wire latency %g", at, floor)
	}
	if at > 100e-6 {
		t.Errorf("0-byte transfer took %g, unreasonably slow", at)
	}
}

// bwOf measures steady-state bandwidth of nstreams concurrent transfers of
// size bytes each between distinct endpoint pairs on two nodes.
// transferBulk runs TransferBulkFn, the path the MPI layer uses, and
// returns gates that fire at injection and delivery.
func transferBulk(n *Net, src, dst *Endpoint, size int64) (injected, delivered *sim.Gate) {
	injected = n.Eng.NewGate()
	delivered = n.Eng.NewGate()
	n.TransferBulkFn(src, dst, size, fireGateCB, injected, fireGateCB, delivered)
	return injected, delivered
}

func bwOf(t *testing.T, nstreams int, size int64) float64 {
	t.Helper()
	var total float64
	run(t, 2, func(n *Net, p *sim.Proc) {
		gates := make([]*sim.Gate, nstreams)
		for i := 0; i < nstreams; i++ {
			a, b := n.NewEndpoint(0), n.NewEndpoint(1)
			_, gates[i] = n.Transfer(a, b, size)
		}
		p.WaitAll(gates...)
		total = p.Now()
	})
	return float64(size*int64(nstreams)) / total
}

func TestSingleStreamBelowWirePeak(t *testing.T) {
	cfg := DefaultConfig(2)
	bw := bwOf(t, 1, 16<<20)
	if bw >= cfg.WireBandwidth {
		t.Errorf("single stream bw %g >= wire peak %g; CPU should be the bottleneck", bw, cfg.WireBandwidth)
	}
	if bw < 0.5*cfg.CPUCopyRate {
		t.Errorf("single stream bw %g too low vs CPU rate %g", bw, cfg.CPUCopyRate)
	}
}

func TestMultiStreamSaturatesWire(t *testing.T) {
	cfg := DefaultConfig(2)
	bw4 := bwOf(t, 4, 8<<20)
	if bw4 < 0.9*cfg.WireBandwidth {
		t.Errorf("4 streams reach only %g of wire %g", bw4, cfg.WireBandwidth)
	}
	if bw4 > 1.01*cfg.WireBandwidth {
		t.Errorf("4 streams exceed wire peak: %g > %g", bw4, cfg.WireBandwidth)
	}
}

func TestBandwidthMonotoneInStreams(t *testing.T) {
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		bw := bwOf(t, k, 4<<20)
		if bw < prev*0.98 { // allow tiny fuzz
			t.Errorf("bandwidth not monotone: %d streams -> %g < %g", k, bw, prev)
		}
		prev = bw
	}
}

func TestBandwidthMonotoneInSize(t *testing.T) {
	prev := 0.0
	for _, sz := range []int64{1 << 10, 16 << 10, 256 << 10, 4 << 20} {
		bw := bwOf(t, 1, sz)
		if bw < prev {
			t.Errorf("bandwidth decreased with size at %d: %g < %g", sz, bw, prev)
		}
		prev = bw
	}
}

func TestIntraNodeTransfer(t *testing.T) {
	var at float64
	run(t, 1, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(0)
		_, d := n.Transfer(a, b, 1<<20)
		p.Wait(d)
		at = p.Now()
	})
	if at <= 0 {
		t.Fatal("intra-node transfer did not complete")
	}
	// Intra-node must not touch the wire.
	n2 := run(t, 1, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(0)
		_, d := n.Transfer(a, b, 1<<20)
		p.Wait(d)
	})
	if n2.nodes[0].egress.BusyTime() != 0 {
		t.Errorf("intra-node transfer used the wire: busy=%g", n2.nodes[0].egress.BusyTime())
	}
}

func TestComputeScalesWithPPN(t *testing.T) {
	var t1, t4 float64
	run(t, 1, func(n *Net, p *sim.Proc) {
		ep := n.NewEndpoint(0)
		start := p.Now()
		n.Compute(p, ep, 1e9, 1)
		t1 = p.Now() - start
		start = p.Now()
		n.Compute(p, ep, 1e9, 4)
		t4 = p.Now() - start
	})
	if t4 < 3.9*t1 || t4 > 4.1*t1 {
		t.Errorf("compute with 4 PPN took %g, want ~4x of %g", t4, t1)
	}
}

func TestChargeCPUSerializes(t *testing.T) {
	// Two charges on the same endpoint from different procs must serialize.
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ep := n.NewEndpoint(0)
	var end1, end2 float64
	eng.Spawn("a", func(p *sim.Proc) {
		n.ChargeCPU(p, ep, 1.0)
		end1 = p.Now()
	})
	eng.Spawn("b", func(p *sim.Proc) {
		n.ChargeCPU(p, ep, 1.0)
		end2 = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end1 != 1.0 || end2 != 2.0 {
		t.Errorf("CPU charges did not serialize: %g, %g", end1, end2)
	}
}

func TestEndpointNodeRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := New(eng, DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range node")
		}
	}()
	n.NewEndpoint(2)
}

// Property: transfer time is nondecreasing in size, for random sizes.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	measure := func(size int64) float64 {
		var at float64
		eng := sim.NewEngine()
		n, _ := New(eng, DefaultConfig(2))
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		eng.Spawn("d", func(p *sim.Proc) {
			_, d := n.Transfer(a, b, size)
			p.Wait(d)
			at = p.Now()
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return at
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Int63n(1 << 22)
		b := a + rng.Int63n(1<<22) + 1
		return measure(a) <= measure(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: two concurrent transfers on disjoint node pairs do not slow each
// other down (no false sharing in the model).
func TestDisjointPairsIndependent(t *testing.T) {
	solo := func() float64 {
		var at float64
		eng := sim.NewEngine()
		n, _ := New(eng, DefaultConfig(4))
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		eng.Spawn("d", func(p *sim.Proc) {
			_, d := n.Transfer(a, b, 8<<20)
			p.Wait(d)
			at = p.Now()
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return at
	}()
	both := func() float64 {
		var at float64
		eng := sim.NewEngine()
		n, _ := New(eng, DefaultConfig(4))
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		c, d := n.NewEndpoint(2), n.NewEndpoint(3)
		eng.Spawn("d", func(p *sim.Proc) {
			_, g1 := n.Transfer(a, b, 8<<20)
			_, g2 := n.Transfer(c, d, 8<<20)
			p.WaitAll(g1, g2)
			at = p.Now()
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return at
	}()
	if both > solo*1.001 {
		t.Errorf("disjoint transfers interfered: both=%g solo=%g", both, solo)
	}
}

func TestCoreOversubscriptionThrottles(t *testing.T) {
	// 4 disjoint node pairs each moving 8 MB. Non-blocking fabric: they
	// are independent. With a core limited to one wire's bandwidth, the
	// aggregate is capped and the transfers take ~4x longer.
	measure := func(coreBW float64) float64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig(8)
		cfg.CoreBandwidth = coreBW
		n, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var done float64
		eng.Spawn("driver", func(p *sim.Proc) {
			var gates []*sim.Gate
			for pair := 0; pair < 4; pair++ {
				a, b := n.NewEndpoint(pair), n.NewEndpoint(pair+4)
				_, d := transferBulk(n, a, b, 8<<20)
				gates = append(gates, d)
			}
			p.WaitAll(gates...)
			done = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	free := measure(0)
	capped := measure(DefaultConfig(8).WireBandwidth)
	if capped < 3*free {
		t.Errorf("oversubscribed core too fast: %g vs free %g", capped, free)
	}
	generous := measure(100e9)
	if generous > free*1.1 {
		t.Errorf("generous core should not throttle: %g vs %g", generous, free)
	}
}

func TestCoreBandwidthValidation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.CoreBandwidth = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative CoreBandwidth accepted")
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := New(eng, DefaultConfig(2))
	a, b := n.NewEndpoint(0), n.NewEndpoint(1)
	var end float64
	eng.Spawn("d", func(p *sim.Proc) {
		_, d := transferBulk(n, a, b, 8<<20)
		p.Wait(d)
		end = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	mean, peak := n.Utilization(end)
	if peak <= 0 || peak > 1.001 {
		t.Errorf("peak wire utilization %g out of (0,1]", peak)
	}
	if mean <= 0 || mean > peak {
		t.Errorf("mean %g vs peak %g inconsistent", mean, peak)
	}
	if m, p2 := n.Utilization(0); m != 0 || p2 != 0 {
		t.Error("zero window should report zero")
	}
}
