package mpi

import (
	"testing"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// progressJob builds a 4-rank world on 2 nodes (two lanes per node) with
// cfg mutations and world mutations applied before Launch, runs body on
// every rank, and returns the world for post-run inspection.
func progressJob(t *testing.T, mutate func(*simnet.Config), setup func(*World), body func(p *Proc)) *World {
	t.Helper()
	eng := sim.NewEngine()
	cfg := simnet.DefaultConfig(2)
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := simnet.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(net, 4, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(w)
	}
	w.Launch(body)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestProgressRankRedirect: with one progress agent per node, a sibling's
// transfer work leaves its own NIC lane entirely and lands on the agent's
// CPU, consumer-tagged with the owner's identity.
func TestProgressRankRedirect(t *testing.T) {
	payload := make([]float64, 1<<17) // 1 MB, rendezvous
	w := progressJob(t, nil,
		func(w *World) { w.Progress = 1 },
		func(p *Proc) {
			c := p.World()
			switch p.Rank() {
			case 0:
				c.Send(2, 1, F64(payload))
			case 2:
				c.Recv(0, 1, F64(make([]float64, len(payload))))
			}
		})

	var nicBusy [4]float64
	var cpuStats [4]sim.ResourceStats
	w.EachEndpoint(func(rank int, ep *simnet.Endpoint) {
		nicBusy[rank] = ep.NIC.BusyTime()
		cpuStats[rank] = ep.CPU.Snapshot()
	})
	if nicBusy[0] != 0 || nicBusy[2] != 0 {
		t.Errorf("sibling NIC lanes still busy under progress ranks: tx %g, rx %g",
			nicBusy[0], nicBusy[2])
	}
	// The highest lane on each node is the agent: only its CPU takes
	// tagged work.
	if cpuStats[0].TaggedBusy != 0 || cpuStats[2].TaggedBusy != 0 {
		t.Errorf("non-agent CPUs carry tagged work: rank 0 %g, rank 2 %g",
			cpuStats[0].TaggedBusy, cpuStats[2].TaggedBusy)
	}
	if got := cpuStats[1].ByConsumer["ep0.nic"]; got <= 0 {
		t.Errorf("node-0 agent CPU has no tagged work for rank 0's pipeline: %+v", cpuStats[1])
	}
	if got := cpuStats[3].ByConsumer["ep2.nic"]; got <= 0 {
		t.Errorf("node-1 agent CPU has no tagged work for rank 2's pipeline: %+v", cpuStats[3])
	}
	// Tagged work never exceeds the lane's total busy time.
	for r, st := range cpuStats {
		if st.TaggedBusy > st.BusyTime+1e-12 {
			t.Errorf("rank %d CPU tagged busy %g > busy %g", r, st.TaggedBusy, st.BusyTime)
		}
	}
}

// TestProgressDMAOffloadRedirect: with the per-node offload engine enabled,
// chunk forwarding leaves every NIC lane and is billed, consumer-tagged, to
// the node's offload resource.
func TestProgressDMAOffloadRedirect(t *testing.T) {
	payload := make([]float64, 1<<17)
	w := progressJob(t,
		func(cfg *simnet.Config) { cfg.OffloadRate = simnet.DefaultOffloadRate },
		nil,
		func(p *Proc) {
			c := p.World()
			switch p.Rank() {
			case 0:
				c.Send(2, 1, F64(payload))
			case 2:
				c.Recv(0, 1, F64(make([]float64, len(payload))))
			}
		})

	w.EachEndpoint(func(rank int, ep *simnet.Endpoint) {
		if busy := ep.NIC.BusyTime(); busy != 0 {
			t.Errorf("rank %d NIC lane busy %g under DMA offload, want 0", rank, busy)
		}
	})
	var offload []sim.ResourceStats
	w.Net.EachResource(func(r *sim.Resource) {
		if len(r.Name) > 8 && r.Name[len(r.Name)-8:] == ".offload" {
			offload = append(offload, r.Snapshot())
		}
	})
	if len(offload) != 2 {
		t.Fatalf("expected 2 offload engines, saw %d", len(offload))
	}
	if offload[0].ByConsumer["ep0.nic"] <= 0 {
		t.Errorf("node 0 offload engine has no tx work for rank 0: %+v", offload[0])
	}
	if offload[1].ByConsumer["ep2.nic"] <= 0 {
		t.Errorf("node 1 offload engine has no rx work for rank 2: %+v", offload[1])
	}
}

// TestProgressEagerWake: parked ranks under the progress engine wake at the
// barrier's fire time instead of at the next poll tick, so RunActive's
// parked side adds no poll-interval quantization.
func TestProgressEagerWake(t *testing.T) {
	const body = 1.23e-3 // active ranks work for ~1.23 ms
	wake := func(progress int) [4]float64 {
		var wokenAt [4]float64
		progressJob(t, nil,
			func(w *World) { w.Progress = progress },
			func(p *Proc) {
				active := p.Rank()%2 == 0
				RunActive(p, p.World(), active, 10e-3, func() {
					p.Sleep(body)
				})
				wokenAt[p.Rank()] = p.Now()
			})
		return wokenAt
	}
	eager := wake(1)
	polled := wake(0)
	for _, r := range []int{1, 3} {
		if eager[r] >= 10e-3 {
			t.Errorf("rank %d woke at %.6fs under progress engine, want < one 10ms poll tick", r, eager[r])
		}
		if eager[r] >= polled[r] {
			t.Errorf("rank %d eager wake %.6fs not earlier than polled wake %.6fs", r, eager[r], polled[r])
		}
		if eager[r] < body {
			t.Errorf("rank %d woke at %.6fs before the active body finished", r, eager[r])
		}
	}
}

// TestWaittimeoutUnderProgressEngine is the PR 3 stale-waiter regression
// probe for the progress path: a parked owner blocked in a timed wait whose
// request is completed by transfer work running on a progress agent's CPU
// must wake at the completion time, well before its deadline — and a
// deadline that does expire must fire exactly on time and leave the request
// re-waitable.
func TestWaittimeoutUnderProgressEngine(t *testing.T) {
	payload := make([]float64, 1<<17) // 1 MB, rendezvous
	const sendDelay = 2e-3
	var (
		firstTry  bool
		firstAt   float64
		secondTry bool
		secondAt  float64
	)
	w := progressJob(t, nil,
		func(w *World) { w.Progress = 1 },
		func(p *Proc) {
			c := p.World()
			switch p.Rank() {
			case 0:
				req := c.Irecv(2, 1, F64(make([]float64, len(payload))))
				// First deadline expires before the sender even starts.
				firstTry = p.sp.WaitTimeout(req.done, 1e-3)
				firstAt = p.Now()
				// Second deadline is far past the completion; the wake must
				// come at completion time, not at the deadline.
				secondTry = p.sp.WaitTimeout(req.done, 0.5)
				secondAt = p.Now()
			case 2:
				p.Sleep(sendDelay)
				c.Send(0, 1, F64(payload))
			}
		})
	if firstTry {
		t.Error("first timed wait completed before any send was posted")
	}
	if firstAt != 1e-3 {
		t.Errorf("expired deadline fired at %.6fs, want exactly 0.001s", firstAt)
	}
	if !secondTry {
		t.Error("second timed wait timed out despite a completed transfer")
	}
	if secondAt >= 0.1 {
		t.Errorf("owner woke at %.6fs — deadline-late wake (stale waiter), expected ~transfer completion", secondAt)
	}
	if secondAt <= sendDelay {
		t.Errorf("owner woke at %.6fs, before the send could complete", secondAt)
	}
	// The completion really was progressed on the agent's CPU.
	var agentCPU sim.ResourceStats
	w.EachEndpoint(func(rank int, ep *simnet.Endpoint) {
		if rank == 1 {
			agentCPU = ep.CPU.Snapshot()
		}
	})
	if agentCPU.ByConsumer["ep0.nic"] <= 0 {
		t.Errorf("no tagged rx work on the owner's node agent: %+v", agentCPU)
	}
}
