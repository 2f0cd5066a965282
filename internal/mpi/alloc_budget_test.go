package mpi

import (
	"testing"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// Allocation budgets for the collective hot path. Each case runs b.N
// back-to-back collectives in ONE world (steady state: request, envelope,
// gate and scratch freelists are warm after the first iteration) and
// asserts the amortized allocs/op stays under a budget. The budgets are
// deliberately loose relative to the measured numbers (the 64-rank 1 MB
// allreduce measures ~13 allocs/op; the budget is 64) so they catch a
// reintroduced per-chunk or per-request allocation — the failure mode is
// thousands of allocs/op, not a drift of five — without flaking on
// incidental runtime noise.
//
// Run under -race in CI these double as a pool-isolation proof: every
// freelist hangs off a World or Engine, so concurrent replicas recycling
// buffers at full tilt would trip the detector if any pool were shared.

// allocBudgetCase runs n iterations of body in one world via
// testing.Benchmark and returns the steady-state allocs per operation.
func allocBudget(t *testing.T, size, nodes int, cfg func(w *World), body func(p *Proc)) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEngine()
		net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorld(net, size, nil)
		if err != nil {
			b.Fatal(err)
		}
		if cfg != nil {
			cfg(w)
		}
		w.Launch(func(p *Proc) {
			for i := 0; i < b.N; i++ {
				body(p)
			}
		})
		b.ResetTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	})
	return float64(res.AllocsPerOp())
}

// TestAllocBudgetAllreduceHeadline pins the acceptance-criterion number:
// the 64-rank 1 MB allreduce that measured ~23,464 allocs/op before the
// pooling work must stay within an order of magnitude of its pooled
// steady state (~13 allocs/op).
func TestAllocBudgetAllreduceHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	got := allocBudget(t, 64, 16, nil, func(p *Proc) {
		p.World().Allreduce(Phantom(1<<20), OpSum)
	})
	if budget := float64(64 * raceAllocFactor); got > budget {
		t.Errorf("allreduce 64-rank 1MB: %.0f allocs/op, budget %.0f (was ~23464 before pooling)", got, budget)
	}
	t.Logf("allreduce 64-rank 1MB steady state: %.0f allocs/op", got)
}

// reduceBody reduces to root 0; the root supplies a receive buffer (an
// intentional per-op allocation, inside the budget), other ranks pass the
// zero Buffer as the Reduce contract asks.
func reduceBody(p *Proc, d []float64) {
	var recv Buffer
	if p.Rank() == 0 {
		recv = F64(make([]float64, len(d)))
	}
	p.World().Reduce(0, F64(d), recv, OpSum)
}

// TestAllocBudgetAlgorithms sweeps Allreduce across every forcible
// algorithm plus Bcast and Reduce, with real (non-phantom) payloads so the
// scratch-buffer pool is exercised, on a non-power-of-two size so the
// fold/unfold and mixed-radix paths run.
func TestAllocBudgetAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	const (
		size  = 12
		nodes = 4
		elems = 4096
	)
	cases := []struct {
		name   string
		cfg    func(w *World)
		body   func(p *Proc, data []float64)
		budget float64
	}{
		{"allreduce/ring", func(w *World) { w.AllreduceAlg = AlgRing },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/bruck", func(w *World) { w.AllreduceAlg = AlgBruck },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/shift", func(w *World) { w.AllreduceAlg = AlgShift },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/recdouble", func(w *World) { w.AllreduceAlg = AlgRecDouble },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/rabenseifner", func(w *World) { w.AllreduceAlg = AlgRabenseifner },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"bcast/binomial", func(w *World) { w.BcastAlg = AlgBinomial },
			func(p *Proc, d []float64) { p.World().Bcast(0, F64(d)) }, 128},
		{"bcast/scatter-allgather", func(w *World) { w.BcastAlg = AlgScatterAllgather },
			func(p *Proc, d []float64) { p.World().Bcast(0, F64(d)) }, 128},
		{"reduce/binomial", func(w *World) { w.ReduceAlg = AlgBinomial },
			reduceBody, 128},
		{"reduce/rabenseifner", func(w *World) { w.ReduceAlg = AlgRabenseifner },
			reduceBody, 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := allocBudget(t, size, nodes, tc.cfg, func(p *Proc) {
				data := make([]float64, elems)
				for i := range data {
					data[i] = float64(p.Rank() + i)
				}
				tc.body(p, data)
			})
			// The per-iteration data slice above is an intentional,
			// counted allocation (one make per op); budgets include it.
			if budget := tc.budget * raceAllocFactor; got > budget {
				t.Errorf("%s: %.0f allocs/op, budget %.0f", tc.name, got, budget)
			}
			t.Logf("%s steady state: %.0f allocs/op", tc.name, got)
		})
	}
}

// allocBudgetHoisted is allocBudget with per-rank buffers allocated once,
// outside the measured loop: setup runs once per rank and returns the
// per-iteration body, so the measured allocs/op is the collective's own
// steady-state residue with no intentional per-op makes in the number.
func allocBudgetHoisted(t *testing.T, size, nodes int, setup func(p *Proc) func()) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEngine()
		net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorld(net, size, nil)
		if err != nil {
			b.Fatal(err)
		}
		w.Launch(func(p *Proc) {
			body := setup(p)
			for i := 0; i < b.N; i++ {
				body()
			}
		})
		b.ResetTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	})
	return float64(res.AllocsPerOp())
}

// TestAllocBudgetExtraCollectives pins steady-state budgets for the ring
// reduce-scatter and ring allgather — the two collectives the ZeRO-style
// sharded-optimizer workload leans on. With buffers hoisted out of the
// loop, both should be allocation-free in steady state: reduce-scatter's
// running partial-sum clone and per-round scratch come from the world's
// pow2 scratch pool, and the ring allgather works entirely inside the
// caller's receive buffers (its measured residue is 0 allocs/op; the
// budget leaves the same headroom as the allreduce family's).
func TestAllocBudgetExtraCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	const (
		size  = 12
		nodes = 4
		blk   = 1024 // per-rank shard; the full vector is size*blk elements
	)
	t.Run("reduce-scatter/ring", func(t *testing.T) {
		got := allocBudgetHoisted(t, size, nodes, func(p *Proc) func() {
			send := make([]float64, size*blk)
			for i := range send {
				send[i] = float64(p.Rank() + i)
			}
			recv := make([]float64, blk)
			return func() { p.World().ReduceScatter(F64(send), F64(recv), OpSum) }
		})
		if budget := float64(64 * raceAllocFactor); got > budget {
			t.Errorf("reduce-scatter: %.0f allocs/op, budget %.0f", got, budget)
		}
		t.Logf("reduce-scatter steady state: %.0f allocs/op", got)
	})
	t.Run("allgather/ring", func(t *testing.T) {
		got := allocBudgetHoisted(t, size, nodes, func(p *Proc) func() {
			send := make([]float64, blk)
			for i := range send {
				send[i] = float64(p.Rank() + i)
			}
			bufs := make([]Buffer, size)
			for i := range bufs {
				bufs[i] = F64(make([]float64, blk))
			}
			return func() { p.World().Allgather(F64(send), bufs) }
		})
		if budget := float64(64 * raceAllocFactor); got > budget {
			t.Errorf("allgather: %.0f allocs/op, budget %.0f", got, budget)
		}
		t.Logf("allgather steady state: %.0f allocs/op", got)
	})
}
