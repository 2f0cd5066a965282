package simnet

import (
	"testing"

	"commoverlap/internal/metrics"
	"commoverlap/internal/sim"
)

// dropFirst is a FaultModel stub: every chunk's first transmission attempt
// is lost, the retransmission always succeeds, and a fixed jitter delays
// every chunk's leading edge.
type dropFirst struct {
	timeout float64
	jitter  float64
	losses  int
	delays  int
}

func (d *dropFirst) ChunkDelay(src, dst int) float64 {
	d.delays++
	return d.jitter
}

func (d *dropFirst) ChunkFate(src, dst, attempt int) (bool, float64) {
	if attempt == 0 {
		d.losses++
		return true, d.timeout
	}
	return false, 0
}

// runFaults is run with a fault model and a metrics registry installed.
func runFaults(t *testing.T, nodes int, fm FaultModel, reg *metrics.Registry, fn func(n *Net, p *sim.Proc)) *Net {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(eng, DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	n.Faults = fm
	n.Metrics = reg
	eng.Spawn("driver", func(p *sim.Proc) { fn(n, p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTransientLossRetransmits checks the repair path: every chunk is lost
// once, yet the full payload arrives — only later, and with the losses and
// retransmissions accounted in the metrics registry.
func TestTransientLossRetransmits(t *testing.T) {
	const size = 1 << 20
	var clean float64
	run(t, 2, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, size)
		p.Wait(d)
		clean = p.Now()
	})

	fm := &dropFirst{timeout: 50e-6}
	reg := &metrics.Registry{}
	var faulty float64
	runFaults(t, 2, fm, reg, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, size)
		p.Wait(d)
		faulty = p.Now()
	})

	chunks := int(reg.Value("net.chunks", ""))
	if chunks == 0 {
		t.Fatal("no chunks pushed")
	}
	if fm.losses != chunks {
		t.Errorf("lost %d attempts, want one per chunk (%d)", fm.losses, chunks)
	}
	if got := reg.Value("net.chunks.lost", ""); got != float64(chunks) {
		t.Errorf("net.chunks.lost = %g, want %d", got, chunks)
	}
	if got := reg.Value("net.chunks.retrans", ""); got != float64(chunks) {
		t.Errorf("net.chunks.retrans = %g, want %d", got, chunks)
	}
	// Each loss costs at least the retransmission timeout on the critical
	// path of its chunk's pipeline.
	if faulty <= clean+fm.timeout {
		t.Errorf("lossy transfer took %g s, want > clean %g s + one timeout", faulty, clean)
	}
	// Every attempt occupies the wire, so wire bytes double under
	// lose-every-chunk-once.
	if got, want := reg.Value("net.wire.bytes", "node0"), 2.0*size; got != want {
		t.Errorf("net.wire.bytes = %g, want %g (each chunk transmitted twice)", got, want)
	}
}

// TestChunkDelayJitter checks that per-chunk latency jitter from the fault
// model delays delivery.
func TestChunkDelayJitter(t *testing.T) {
	const size = 256 << 10 // one chunk at the default chunk size
	var clean, jittered float64
	run(t, 2, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, size)
		p.Wait(d)
		clean = p.Now()
	})
	jfm := &jitterOnly{jitter: 200e-6}
	runFaults(t, 2, jfm, nil, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, size)
		p.Wait(d)
		jittered = p.Now()
	})
	if jittered < clean+200e-6 {
		t.Errorf("jittered transfer finished at %g, want >= clean %g + jitter 200us", jittered, clean)
	}
	if jfm.delays == 0 {
		t.Error("ChunkDelay never consulted")
	}
}

type jitterOnly struct {
	jitter float64
	delays int
}

func (j *jitterOnly) ChunkDelay(src, dst int) float64 {
	j.delays++
	return j.jitter
}

func (j *jitterOnly) ChunkFate(src, dst, attempt int) (bool, float64) { return false, 0 }

// TestNilRegistryFullTransfer locks in the uniform nil-metrics contract:
// a fabric with no registry installed runs a full inter-node and intra-node
// transfer — hitting every metrics call site in the pipeline, including the
// loss/retransmission ones — without a registry guard anywhere.
func TestNilRegistryFullTransfer(t *testing.T) {
	fm := &dropFirst{timeout: 20e-6, jitter: 1e-6}
	runFaults(t, 2, fm, nil, func(n *Net, p *sim.Proc) {
		if n.Metrics != nil {
			t.Fatal("test wants a nil registry")
		}
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		c := n.NewEndpoint(0)
		_, inter := n.Transfer(a, b, 1<<20)
		_, intra := n.Transfer(a, c, 1<<20)
		_, bulk := transferBulk(n, a, b, 1<<20)
		p.Wait(inter)
		p.Wait(intra)
		p.Wait(bulk)
	})
	if fm.losses == 0 {
		t.Error("fault model never consulted: the nil-registry path skipped the loss branch")
	}
}
