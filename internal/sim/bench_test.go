package sim

import "testing"

// BenchmarkEventThroughput measures raw engine speed: how many
// schedule/resume cycles per second the cooperative scheduler sustains.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const procs = 64
	stop := false
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			for !stop {
				p.Sleep(1)
			}
		})
	}
	e.Spawn("ctl", func(p *Proc) {
		p.Sleep(float64(b.N) / procs)
		stop = true
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkGateFanout measures waking many waiters from one gate.
func BenchmarkGateFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		g := e.NewGate()
		for w := 0; w < 256; w++ {
			e.Spawn("w", func(p *Proc) { p.Wait(g) })
		}
		e.Spawn("f", func(p *Proc) {
			p.Sleep(1)
			g.Fire()
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResourceReserve measures the bookkeeping primitive.
func BenchmarkResourceReserve(b *testing.B) {
	b.ReportAllocs()
	r := NewResource("x")
	ready := 0.0
	for i := 0; i < b.N; i++ {
		_, done := r.Reserve(ready, 1e-6)
		ready = done - 5e-7
	}
}

// BenchmarkStepThroughput is BenchmarkEventThroughput for step processes:
// the same schedule, dispatched inline with no goroutine handoff.
func BenchmarkStepThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const procs = 64
	stop := false
	for i := 0; i < procs; i++ {
		e.SpawnStep("p", func(p *Proc) bool {
			if stop {
				return true
			}
			p.WakeAt(p.Now() + 1)
			return false
		})
	}
	first := true
	e.SpawnStep("ctl", func(p *Proc) bool {
		if first {
			first = false
			p.WakeAt(float64(b.N) / procs)
			return false
		}
		stop = true
		return true
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
