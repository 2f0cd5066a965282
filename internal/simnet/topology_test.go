package simnet

import (
	"math"
	"testing"

	"commoverlap/internal/sim"
)

// runTopo is run with a topology spec applied to the default config.
func runTopo(t *testing.T, nodes int, spec TopoSpec, fn func(n *Net, p *sim.Proc)) *Net {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(nodes)
	cfg.Topo = spec
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Spawn("driver", func(p *sim.Proc) { fn(n, p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTopoSpecValidate(t *testing.T) {
	bad := []TopoSpec{
		{Kind: "mesh3d"},
		{Kind: "hier"},               // GroupSize 0
		{Kind: "hier", GroupSize: 9}, // > nodes
		{Kind: "hier", GroupSize: 2, UplinkLatency: -1},      //
		{Kind: "torus", TorusX: 3, TorusY: 2, Rails: 1},      // 3x2 != 8
		{Kind: "torus", TorusX: 4, TorusY: 2, Rails: 0},      //
		{Kind: "torus", TorusX: 4, TorusY: 2, HopLatency: 1}, // rails 0
	}
	for i, spec := range bad {
		cfg := DefaultConfig(8)
		cfg.Topo = spec
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, spec)
		}
	}
	for _, name := range []string{"", "flat", "hier", "torus"} {
		spec, err := TopoByName(name, 8)
		if err != nil {
			t.Fatalf("TopoByName(%q): %v", name, err)
		}
		cfg := DefaultConfig(8)
		cfg.Topo = spec
		if err := cfg.Validate(); err != nil {
			t.Errorf("TopoByName(%q) spec invalid: %v", name, err)
		}
	}
	if _, err := TopoByName("dragonfly", 8); err == nil {
		t.Error("unknown topology name accepted")
	}
}

// TestFlatTopoIdentical: a flat-topology config produces exactly the
// original fabric — no interior links without a core, a single core link
// with one.
func TestFlatTopoIdentical(t *testing.T) {
	n := runTopo(t, 2, TopoSpec{}, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(1)
		_, d := n.Transfer(a, b, 1<<20)
		p.Wait(d)
	})
	if got := len(n.Links()); got != 0 {
		t.Errorf("flat non-blocking fabric has %d interior links, want 0", got)
	}
	if u := n.LinkUtilization(1); u != nil {
		t.Errorf("flat LinkUtilization = %v, want nil", u)
	}

	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.CoreBandwidth = 6 * cfg.WireBandwidth
	nb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := nb.Links()
	if len(links) != 1 || links[0].Class != "core" || links[0].Bandwidth != cfg.CoreBandwidth {
		t.Fatalf("blocking flat fabric links = %+v", links)
	}
}

// TestHierRouting: same-group routes cross no interior link; cross-group
// routes cross exactly the source uplink and destination downlink, and the
// shared uplink carries every cross-group byte of its group.
func TestHierRouting(t *testing.T) {
	spec := TopoSpec{Kind: "hier", GroupSize: 2, UplinkLatency: 2e-6}
	const size = 1 << 20
	n := runTopo(t, 4, spec, func(n *Net, p *sim.Proc) {
		eps := []*Endpoint{n.NewEndpoint(0), n.NewEndpoint(1), n.NewEndpoint(2), n.NewEndpoint(3)}
		// Intra-group 0->1, then two cross-group transfers 0->2 and 1->3
		// sharing group 0's uplink.
		_, d0 := n.Transfer(eps[0], eps[1], size)
		p.Wait(d0)
		_, d1 := n.Transfer(eps[0], eps[2], size)
		_, d2 := n.Transfer(eps[1], eps[3], size)
		p.Wait(d1)
		p.Wait(d2)
	})

	topo := n.Topology()
	if topo.Name() != "hier" {
		t.Fatalf("topology %q", topo.Name())
	}
	if links, _ := topo.Route(0, 1); len(links) != 0 {
		t.Errorf("intra-group route has %d links", len(links))
	}
	links, lat := topo.Route(0, 2)
	if len(links) != 2 || links[0].Class != "uplink" || links[1].Class != "downlink" {
		t.Fatalf("cross-group route = %+v", links)
	}
	if want := DefaultConfig(4).WireLatency + spec.UplinkLatency; lat != want {
		t.Errorf("cross-group latency %g, want %g", lat, want)
	}
	// Both cross-group transfers left group 0: its uplink carried 2*size,
	// group 1's downlink received the same, and no bytes were lost.
	var up0, down1 int64
	for _, l := range n.Links() {
		switch l.Res.Name {
		case "group0.uplink":
			up0 = l.Bytes()
		case "group1.downlink":
			down1 = l.Bytes()
		default:
			if l.Bytes() != 0 {
				t.Errorf("%s carried %d bytes, want 0", l.Res.Name, l.Bytes())
			}
		}
	}
	if up0 != 2*size || down1 != 2*size {
		t.Errorf("uplink/downlink bytes = %d/%d, want %d each", up0, down1, 2*size)
	}
	if u := n.LinkUtilization(1e-3); u["uplink"] <= 0 {
		t.Errorf("uplink utilization %v", u)
	}
}

// TestHierUplinkContention: two cross-group flows that share one group's
// uplink are slower than the same two flows leaving from different groups —
// the contention a flat fabric cannot express — and the shared uplink runs
// near saturation while contended.
func TestHierUplinkContention(t *testing.T) {
	spec := TopoSpec{Kind: "hier", GroupSize: 2}
	const size = 8 << 20
	elapsed := func(shared bool) (dt, uplinkUtil float64) {
		n := runTopo(t, 4, spec, func(n *Net, p *sim.Proc) {
			// Shared: nodes 0 and 1 (both group 0) send to group 1.
			// Disjoint: node 0 (group 0) and node 2 (group 1) send across.
			src2 := 1
			dst2 := 3
			if !shared {
				src2, dst2 = 2, 1
			}
			a0, b0 := n.NewEndpoint(0), n.NewEndpoint(2)
			a1, b1 := n.NewEndpoint(src2), n.NewEndpoint(dst2)
			t0 := p.Now()
			_, d1 := transferBulk(n, a0, b0, size)
			_, d2 := transferBulk(n, a1, b1, size)
			p.Wait(d1)
			p.Wait(d2)
			dt = p.Now() - t0
		})
		for _, l := range n.Links() {
			if l.Res.Name == "group0.uplink" {
				uplinkUtil = l.Res.BusyTime() / dt
			}
		}
		return dt, uplinkUtil
	}
	sharedDt, sharedUtil := elapsed(true)
	disjointDt, _ := elapsed(false)
	if sharedDt < 1.25*disjointDt {
		t.Errorf("shared-uplink flows took %g s vs %g s disjoint (ratio %.2f, want contention)",
			sharedDt, disjointDt, sharedDt/disjointDt)
	}
	if sharedUtil < 0.9 {
		t.Errorf("contended uplink utilization %.2f, want near saturation", sharedUtil)
	}
}

// TestTorusRouting: dimension-ordered shortest wrap-around paths with
// deterministic rail choice and per-hop link accounting.
func TestTorusRouting(t *testing.T) {
	spec := TopoSpec{Kind: "torus", TorusX: 4, TorusY: 2, Rails: 2, HopLatency: 1e-6}
	const size = 256 << 10
	n := runTopo(t, 8, spec, func(n *Net, p *sim.Proc) {
		a, b := n.NewEndpoint(0), n.NewEndpoint(7) // (0,0) -> (3,1): 1 x-hop (wrap) + 1 y-hop
		_, d := n.Transfer(a, b, size)
		p.Wait(d)
	})
	topo := n.Topology()
	links, lat := topo.Route(0, 7)
	if len(links) != 2 {
		t.Fatalf("route 0->7 has %d hops, want 2 (wrap -x, then y)", len(links))
	}
	if links[0].Class != "rail" || links[1].Class != "rail" {
		t.Errorf("route classes %s/%s", links[0].Class, links[1].Class)
	}
	if want := DefaultConfig(8).WireLatency + 2*spec.HopLatency; lat != want {
		t.Errorf("route latency %g, want %g", lat, want)
	}
	// Determinism: the same pair always routes identically.
	again, _ := topo.Route(0, 7)
	for i := range links {
		if links[i] != again[i] {
			t.Fatalf("route hop %d differs across calls", i)
		}
	}
	// Exactly the two route links carried the payload.
	var carried int
	for _, l := range n.Links() {
		if l.Bytes() == 0 {
			continue
		}
		carried++
		if l.Bytes() != size {
			t.Errorf("%s carried %d bytes, want %d", l.Res.Name, l.Bytes(), size)
		}
	}
	if carried != 2 {
		t.Errorf("%d links carried bytes, want 2", carried)
	}

	// A 4-node ring (TorusY 1) still validates and routes x-only.
	ring := Torus2D(5, 1)
	if ring.TorusX*ring.TorusY != 5 || ring.TorusY != 5 && ring.TorusX != 5 {
		t.Errorf("Torus2D(5,1) = %+v, want a 1x5 ring", ring)
	}
}

// TestTopoResourceAccounting: every interior link obeys the busy/idle
// partition and appears in EachResource.
func TestTopoResourceAccounting(t *testing.T) {
	for _, name := range []string{"hier", "torus"} {
		spec, err := TopoByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		n := runTopo(t, 8, spec, func(n *Net, p *sim.Proc) {
			var gates []*sim.Gate
			for i := 0; i < 8; i++ {
				a, b := n.NewEndpoint(i), n.NewEndpoint((i+3)%8)
				_, d := n.Transfer(a, b, 1<<20)
				gates = append(gates, d)
			}
			for _, g := range gates {
				p.Wait(g)
			}
		})
		elapsed := n.Eng.Now()
		seen := make(map[*sim.Resource]bool)
		n.EachResource(func(r *sim.Resource) { seen[r] = true })
		for _, l := range n.Links() {
			if !seen[l.Res] {
				t.Errorf("%s: link %s missing from EachResource", name, l.Res.Name)
			}
			s := l.Res.Snapshot()
			if s.BusyTime < 0 || s.BusyTime > elapsed {
				t.Errorf("%s: link %s busy %g outside [0,%g]", name, l.Res.Name, s.BusyTime, elapsed)
			}
			if got := s.BusyTime + s.IdleTime(elapsed); math.Abs(got-elapsed) > 1e-12*(1+elapsed) {
				t.Errorf("%s: link %s busy+idle = %g, want %g", name, l.Res.Name, got, elapsed)
			}
		}
	}
}
