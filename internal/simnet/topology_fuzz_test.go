package simnet

import (
	"math"
	"testing"

	"commoverlap/internal/sim"
)

// FuzzTopologyRoute drives two concurrent transfers across arbitrary
// hierarchical and torus fabrics — arbitrary node counts, group sizes, rail
// counts and endpoint placements — and asserts the routing and shared-link
// contention-accounting invariants every schedule must preserve:
//
//   - the job completes and both transfers' gates fire in order;
//   - routing is deterministic: the same (src, dst) pair always yields the
//     identical link sequence;
//   - no lost bytes: every interior link carries exactly the payload bytes
//     of the transfers routed over it, and links on no route carry none;
//   - per-link busy/idle accounting partitions the elapsed window exactly
//     (BusyTime + IdleTime(elapsed) == elapsed, BusyTime <= elapsed);
//   - every reservation on every fabric resource, links included, respects
//     FIFO non-overlap.
func FuzzTopologyRoute(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(2), uint8(1), int64(1<<20), int64(300_000), uint8(0), uint8(3), uint8(1), uint8(2))
	f.Add(uint8(8), uint8(2), uint8(3), uint8(2), int64(256<<10), int64(0), uint8(7), uint8(0), uint8(2), uint8(5))
	f.Add(uint8(9), uint8(2), uint8(1), uint8(3), int64(4<<20), int64(63), uint8(4), uint8(4), uint8(8), uint8(0))
	f.Add(uint8(16), uint8(1), uint8(5), uint8(1), int64(777), int64(2<<20), uint8(15), uint8(1), uint8(3), uint8(3))
	f.Add(uint8(2), uint8(0), uint8(1), uint8(1), int64(64<<10), int64(64<<10), uint8(0), uint8(1), uint8(1), uint8(0))

	f.Fuzz(func(t *testing.T, nodes8, kindSel, group8, rails8 uint8, sizeA, sizeB int64, srcA8, dstA8, srcB8, dstB8 uint8) {
		const maxSize = 4 << 20
		if sizeA < 0 || sizeA > maxSize || sizeB < 0 || sizeB > maxSize {
			t.Skip("size out of modeled range")
		}
		nodes := 2 + int(nodes8)%15 // 2..16
		var spec TopoSpec
		switch kindSel % 3 {
		case 0:
			spec = TopoSpec{} // flat: no interior links, route invariants trivial
		case 1:
			spec = TopoSpec{
				Kind:          "hier",
				GroupSize:     1 + int(group8)%nodes,
				UplinkLatency: 1.5e-6,
			}
		case 2:
			spec = Torus2D(nodes, 1+int(rails8)%3)
		}
		eng := sim.NewEngine()
		cfg := DefaultConfig(nodes)
		cfg.Topo = spec
		net, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// FIFO non-overlap audit on every fabric resource, links included.
		net.EachResource(func(r *sim.Resource) {
			name := r.Name
			prevDone := 0.0
			r.Audit = func(ready, start, done float64) {
				if start < ready || done < start || start < prevDone {
					t.Errorf("%s: reservation (ready=%g start=%g done=%g) after prev done %g",
						name, ready, start, done, prevDone)
				}
				prevDone = done
			}
		})

		type flow struct {
			src, dst int
			size     int64
		}
		flows := []flow{
			{int(srcA8) % nodes, int(dstA8) % nodes, sizeA},
			{int(srcB8) % nodes, int(dstB8) % nodes, sizeB},
		}
		var gates [][2]*sim.Gate
		for i, fl := range flows {
			a, b := net.NewEndpoint(fl.src), net.NewEndpoint(fl.dst)
			var inj, del *sim.Gate
			if i == 0 {
				inj, del = net.Transfer(a, b, fl.size)
			} else {
				inj, del = transferBulk(net, a, b, fl.size)
			}
			gates = append(gates, [2]*sim.Gate{inj, del})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("transfers deadlocked (%+v): %v", spec, err)
		}
		for i, g := range gates {
			if !g[0].Fired() || !g[1].Fired() {
				t.Fatalf("flow %d: injected fired=%v delivered fired=%v", i, g[0].Fired(), g[1].Fired())
			}
			if g[1].FiredAt() < g[0].FiredAt() {
				t.Errorf("flow %d delivered before injected", i)
			}
		}

		// Route determinism and per-link byte conservation: replaying each
		// flow's route must predict every link's byte counter exactly.
		topo := net.Topology()
		want := make(map[*Link]int64)
		for _, fl := range flows {
			if fl.src == fl.dst {
				continue
			}
			links, lat := topo.Route(fl.src, fl.dst)
			again, lat2 := topo.Route(fl.src, fl.dst)
			if len(links) != len(again) || lat != lat2 {
				t.Fatalf("route %d->%d not deterministic", fl.src, fl.dst)
			}
			for i := range links {
				if links[i] != again[i] {
					t.Fatalf("route %d->%d hop %d differs across calls", fl.src, fl.dst, i)
				}
				want[links[i]] += fl.size
			}
		}
		elapsed := eng.Now()
		for _, l := range net.Links() {
			if got := l.Bytes(); got != want[l] {
				t.Errorf("link %s carried %d bytes, want %d (lost or invented bytes)",
					l.Res.Name, got, want[l])
			}
			s := l.Res.Snapshot()
			if s.BusyTime < 0 || s.BusyTime > elapsed {
				t.Errorf("link %s busy %g outside [0, %g]", l.Res.Name, s.BusyTime, elapsed)
			}
			// IdleTime is computed as elapsed-BusyTime, so summing back can
			// round by an ulp; anything beyond that is an accounting hole.
			if got := s.BusyTime + s.IdleTime(elapsed); math.Abs(got-elapsed) > 1e-12*(1+elapsed) {
				t.Errorf("link %s busy+idle = %g, want elapsed %g", l.Res.Name, got, elapsed)
			}
			if s.LastDone > elapsed {
				t.Errorf("link %s last reservation ends at %g after the run ended at %g",
					l.Res.Name, s.LastDone, elapsed)
			}
		}
	})
}
