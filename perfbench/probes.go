package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"commoverlap/internal/bench"
	"commoverlap/internal/cache"
	"commoverlap/internal/core"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/tune"
	"commoverlap/internal/workload"
)

// Layer probes. Each one drives a single layer through its public
// constructors and reports cost per unit of work. Counting (event hooks,
// metrics registries, allocation counters) happens in a pass of its own,
// before the timed repetitions, so hook cost never enters a time; a per-
// event figure is timed ns divided by counted events. Every probe also
// checks its output against the golden file, and every count must repeat
// exactly.

// probeRun collects one probe child's results.
type probeRun struct {
	rep  *passReport
	g    *goldenArch
	seed int64
	// table is the committed quick-grid table: the tune probes sample its
	// cells and the cache probe warms a store from it.
	table *tune.Table
}

func (r *probeRun) set(name string, v float64, unit string) {
	r.rep.Layer[name] = metric{v, unit}
}

// output checks a probe's deterministic result against its golden digest.
func (r *probeRun) output(name string, v any) {
	r.rep.Attempted++
	r.rep.checkDigest(r.g, "probe."+name, []byte(fmt.Sprintf("%+v", v)))
}

// failed records a probe that could not run.
func (r *probeRun) failed(name string, err error) {
	r.rep.Attempted++
	r.rep.fail("probe."+name, "%v", err)
}

// timeIt returns the median seconds per call of fn over at least minReps
// calls and at least minTime of calls.
func timeIt(fn func() error) (float64, error) {
	const minReps, minTime, maxReps = 3, 200 * time.Millisecond, 1000
	var ts []float64
	total := 0.0
	for len(ts) < minReps || (total < minTime.Seconds() && len(ts) < maxReps) {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t).Seconds()
		ts = append(ts, d)
		total += d
	}
	return median(ts), nil
}

type probe struct {
	name string
	run  func(r *probeRun) error
}

// probes in their canonical order; the seed permutes the issue order.
var probes = []probe{
	{"sim.event", probeEvents},
	{"sim.gate_fanout", probeGateFanout},
	{"sim.reserve", probeReserve},
	{"simnet.transfer_flat", func(r *probeRun) error { return probeTransfer(r, "", "simnet.transfer_16MB") }},
	{"simnet.transfer_hier", func(r *probeRun) error { return probeTransfer(r, "hier", "simnet.transfer_hier_16MB") }},
	{"simnet.p2p", probeP2P},
	{"mpi.world_setup", probeWorldSetup},
	{"mpi.allreduce", probeAllreduce},
	{"mpi.ireduce", probeIreduce},
	{"core.kernel_ndup1", func(r *probeRun) error { return probeKernel(r, "core.kernel_ndup1", 1, 1) }},
	{"core.kernel_ndup4", func(r *probeRun) error { return probeKernel(r, "core.kernel_ndup4", 4, 1) }},
	{"core.kernel_ppn4", func(r *probeRun) error { return probeKernel(r, "core.kernel_ppn4", 1, 4) }},
	{"workload.dp", func(r *probeRun) error { return probeWorkload(r, "workload.dp", mlSpec(workload.DataParallel, "")) }},
	{"workload.zero_hier", func(r *probeRun) error { return probeWorkload(r, "workload.zero_hier", mlSpec(workload.ZeRO, "")) }},
	{"workload.pipeline", func(r *probeRun) error { return probeWorkload(r, "workload.pipeline", mlSpec(workload.Pipeline, "")) }},
	{"progress.zero_rank1", func(r *probeRun) error {
		return probeWorkload(r, "progress.zero_rank1", mlSpec(workload.ZeRO, "rank1"))
	}},
	{"progress.zero_dma", func(r *probeRun) error { return probeWorkload(r, "progress.zero_dma", mlSpec(workload.ZeRO, "dma")) }},
	{"tune.cells", probeTuneCells},
	{"cache.warm_search", probeWarmSearch},
	{"cache.ops", probeCacheOps},
}

// childProbes runs every probe once, in seed order, and prints the report.
func childProbes(o options, gold golden) error {
	rep := passReport{Layer: map[string]metric{}, Counts: map[string]int64{}}
	if err := runProbes(&rep, gold.arch(), o.seed); err != nil {
		return err
	}
	rep.checkCounts(gold.arch())
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func runProbes(rep *passReport, g *goldenArch, seed int64) error {
	bench.Workers = poolWorkers()
	table, err := tune.LoadTable(tuningPath)
	if err != nil {
		return err
	}
	r := &probeRun{rep: rep, g: g, seed: seed, table: table}
	for _, i := range order(seed, -1, len(probes)) {
		p := probes[i]
		if err := p.run(r); err != nil {
			r.failed(p.name, err)
		}
	}
	return nil
}

// --- sim ---------------------------------------------------------------

// eventLoop runs 64 processes sleeping in lockstep: the engine's dispatch
// path with nothing else in it.
func eventLoop(count *int64) error {
	e := sim.NewEngine()
	countEvents(e, count)
	for i := 0; i < 64; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < 4000; j++ {
				p.Sleep(1)
			}
		})
	}
	return e.Run()
}

// countEvents counts e's dispatched events into count, when it is non-nil.
func countEvents(e *sim.Engine, count *int64) {
	if count != nil {
		e.SetEventHook(func(float64, *sim.Proc) { *count++ })
	}
}

// countThenTime runs fn once counting events, then times it uncounted.
func countThenTime(fn func(count *int64) error) (events int64, secs float64, err error) {
	if err = fn(&events); err != nil {
		return 0, 0, err
	}
	secs, err = timeIt(func() error { return fn(nil) })
	return events, secs, err
}

func probeEvents(r *probeRun) error {
	n, t, err := countThenTime(eventLoop)
	if err != nil {
		return err
	}
	r.rep.Counts["sim.event_loop.events"] = n
	r.set("sim.event_ns", t*1e9/float64(n), "ns")
	return nil
}

// gateFanout wakes 256 waiters from one gate.
func gateFanout(count *int64) error {
	e := sim.NewEngine()
	countEvents(e, count)
	g := e.NewGate()
	for w := 0; w < 256; w++ {
		e.Spawn("w", func(p *sim.Proc) { p.Wait(g) })
	}
	e.Spawn("f", func(p *sim.Proc) {
		p.Sleep(1)
		g.Fire()
	})
	return e.Run()
}

func probeGateFanout(r *probeRun) error {
	n, t, err := countThenTime(gateFanout)
	if err != nil {
		return err
	}
	r.rep.Counts["sim.gate_fanout.events"] = n
	r.set("sim.gate_fanout_us", t*1e6, "us")
	return nil
}

func probeReserve(r *probeRun) error {
	const n = 1 << 20
	var busy float64
	t, err := timeIt(func() error {
		res := sim.NewResource("x")
		ready := 0.0
		for i := 0; i < n; i++ {
			_, done := res.Reserve(ready, 1e-6)
			ready = done - 5e-7
		}
		busy = res.BusyTime()
		return nil
	})
	if err != nil {
		return err
	}
	r.output("sim.reserve", busy)
	r.set("sim.reserve_ns", t*1e9/n, "ns")
	return nil
}

// --- simnet ------------------------------------------------------------

// transfer16MB moves 16 MiB between the first and last of 8 nodes and
// returns the delivery time. A registry, when given, counts the fabric's
// chunks and transfers.
func transfer16MB(topo string, reg *metrics.Registry, count *int64) (float64, error) {
	const nodes = 8
	eng := sim.NewEngine()
	countEvents(eng, count)
	cfg := simnet.DefaultConfig(nodes)
	var err error
	if cfg.Topo, err = simnet.TopoByName(topo, nodes); err != nil {
		return 0, err
	}
	net, err := simnet.New(eng, cfg)
	if err != nil {
		return 0, err
	}
	net.Metrics = reg
	_, delivered := net.Transfer(net.NewEndpoint(0), net.NewEndpoint(nodes-1), 16<<20)
	eng.Spawn("sink", func(p *sim.Proc) { p.Wait(delivered) })
	err = eng.Run()
	return delivered.FiredAt(), err
}

func probeTransfer(r *probeRun, topo, name string) error {
	var reg metrics.Registry
	var n int64
	at, err := transfer16MB(topo, &reg, &n)
	if err != nil {
		return err
	}
	chunks := int64(reg.Value("net.chunks", ""))
	r.rep.Counts[name+".events"] = n
	r.rep.Counts[name+".chunks"] = chunks
	r.rep.Counts[name+".transfers"] = int64(reg.Value("net.transfers", ""))
	r.output(name, at)
	t, err := timeIt(func() error { _, err := transfer16MB(topo, nil, nil); return err })
	if err != nil {
		return err
	}
	r.set(name+"_us", t*1e6, "us")
	if topo == "" {
		r.set("simnet.transfer_16MB_events", float64(n), "count")
		r.set("simnet.chunk_ns", t*1e9/float64(chunks), "ns")
	}
	return nil
}

// --- mpi ---------------------------------------------------------------

// world builds a fresh engine, flat fabric and MPI world.
func world(nodes, ranks int) (*sim.Engine, *mpi.World, error) {
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
	if err != nil {
		return nil, nil, err
	}
	w, err := mpi.NewWorld(net, ranks, nil)
	return eng, w, err
}

// steadyStats is what steady measured over its measured iterations.
type steadyStats struct {
	seconds float64
	events  int64
	allocs  uint64
	final   float64 // virtual end time, the output check
}

// steady runs iters iterations of body on every rank of one world and
// measures the last iters-warm of them from rank 0's point of view: host
// seconds, and, when counting, dispatched events and heap allocations.
func steady(nodes, ranks, dups, warm, iters int, counting bool, body func(c *mpi.Comm, comms []*mpi.Comm)) (steadyStats, error) {
	var st steadyStats
	eng, w, err := world(nodes, ranks)
	if err != nil {
		return st, err
	}
	var events int64
	on := false
	if counting {
		eng.SetEventHook(func(float64, *sim.Proc) {
			if on {
				events++
			}
		})
	}
	var t0 time.Time
	var ms runtime.MemStats
	var mallocs uint64
	w.Launch(func(p *mpi.Proc) {
		c := p.World()
		comms := c.DupN(dups)
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 && i == warm {
				if counting {
					runtime.ReadMemStats(&ms)
					mallocs = ms.Mallocs
					on = true
				}
				t0 = time.Now()
			}
			body(c, comms)
		}
		if p.Rank() == 0 {
			st.seconds = time.Since(t0).Seconds()
			if counting {
				on = false
				runtime.ReadMemStats(&ms)
				st.allocs = ms.Mallocs - mallocs
			}
		}
	})
	err = eng.Run()
	st.events = events
	st.final = eng.Now()
	return st, err
}

// probeSteady counts one steady run, then times five more; the returned
// figures are per measured iteration.
func probeSteady(r *probeRun, name string, nodes, ranks, dups, warm, iters int, body func(c *mpi.Comm, comms []*mpi.Comm)) (steadyStats, error) {
	n := float64(iters - warm)
	cnt, err := steady(nodes, ranks, dups, warm, iters, true, body)
	if err != nil {
		return cnt, err
	}
	r.rep.Counts[name+".events"] = cnt.events
	r.output(name, cnt.final)
	var ts []float64
	for i := 0; i < 5; i++ {
		st, err := steady(nodes, ranks, dups, warm, iters, false, body)
		if err != nil {
			return cnt, err
		}
		ts = append(ts, st.seconds/n)
	}
	cnt.seconds = median(ts)
	cnt.events = int64(float64(cnt.events) / n)
	cnt.allocs = uint64(float64(cnt.allocs) / n)
	return cnt, nil
}

func probeAllreduce(r *probeRun) error {
	st, err := probeSteady(r, "mpi.allreduce", 16, 64, 0, 2, 8, func(c *mpi.Comm, _ []*mpi.Comm) {
		c.Allreduce(mpi.Phantom(1<<20), mpi.OpSum)
	})
	if err != nil {
		return err
	}
	r.set("mpi.allreduce_1MB_64r_us", st.seconds*1e6, "us")
	r.set("mpi.allreduce_events", float64(st.events), "count")
	r.set("mpi.allreduce_allocs", float64(st.allocs), "count")
	return nil
}

// probeIreduce is the overlapped Fig. 5 reduction: 16 MiB split over four
// duplicated communicators on 4 nodes.
func probeIreduce(r *probeRun) error {
	st, err := probeSteady(r, "mpi.ireduce_ndup4", 4, 4, 4, 1, 5, func(_ *mpi.Comm, comms []*mpi.Comm) {
		reqs := make([]*mpi.Request, len(comms))
		for d, c := range comms {
			b := mpi.Phantom(4 << 20)
			reqs[d] = c.Ireduce(0, b, b, mpi.OpSum)
		}
		mpi.Waitall(reqs...)
	})
	if err != nil {
		return err
	}
	r.set("mpi.ireduce_ndup4_16MB_us", st.seconds*1e6, "us")
	return nil
}

func probeP2P(r *probeRun) error {
	const rounds, msgs = 20, 100
	st, err := probeSteady(r, "simnet.p2p", 2, 2, 0, 0, rounds, func(c *mpi.Comm, _ []*mpi.Comm) {
		for m := 0; m < msgs; m++ {
			if c.Rank() == 0 {
				c.Send(1, m, mpi.Phantom(4096))
			} else {
				c.Recv(0, m, mpi.Phantom(4096))
			}
		}
	})
	if err != nil {
		return err
	}
	r.set("simnet.p2p_msg_ns", st.seconds*1e9/msgs, "ns")
	return nil
}

// worldSetup is a 64-rank world from nothing to a finished empty launch:
// the fixed cost every tune cell pays.
func worldSetup() error {
	eng, w, err := world(16, 64)
	if err != nil {
		return err
	}
	w.Launch(func(*mpi.Proc) {})
	return eng.Run()
}

func probeWorldSetup(r *probeRun) error {
	// The fewest allocations over several setups: the runtime's own
	// background work occasionally lands inside one of them.
	var ms runtime.MemStats
	allocs := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := worldSetup(); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		allocs = min(allocs, ms.Mallocs-before)
	}
	t, err := timeIt(worldSetup)
	if err != nil {
		return err
	}
	r.set("mpi.world_setup_us", t*1e6, "us")
	r.set("mpi.world_setup_allocs", float64(allocs), "count")
	return nil
}

// --- core ----------------------------------------------------------------

// probeKernel runs the optimized SymmSquareCube kernel on the 1hsg_70
// system (N = 7645) over a 4x4x4 mesh: once counted with the metrics sink
// installed, then timed without it.
func probeKernel(r *probeRun, name string, ndup, ppn int) error {
	const n, p = 7645, 4
	var reg metrics.Registry
	bench.Metrics = &reg
	out, err := bench.Kernel(core.Optimized, n, p, ndup, ppn)
	bench.Metrics = nil
	if err != nil {
		return err
	}
	r.rep.Counts[name+".chunks"] = int64(reg.Value("net.chunks", ""))
	r.rep.Counts[name+".transfers"] = int64(reg.Value("net.transfers", ""))
	r.output(name, out)
	t, err := timeIt(func() error { _, err := bench.Kernel(core.Optimized, n, p, ndup, ppn); return err })
	if err != nil {
		return err
	}
	r.set(name+"_ms", t*1e3, "ms")
	return nil
}

// --- workload and progress ---------------------------------------------

// mlSpec is the full-size overlapped pattern of the ML experiment (8 nodes,
// 1 MiB units), on four launched lanes so rank-mode progress agents fit.
func mlSpec(pat workload.Pattern, prog string) workload.Spec {
	topo := ""
	if pat == workload.ZeRO {
		topo = "hier"
	}
	return workload.Spec{Pattern: pat, Nodes: 8, LaunchPPN: 4, PPN: 2, NDup: 2,
		Units: 6, Elems: 1 << 17, Overlap: true, Topo: topo, Progress: prog}
}

func probeWorkload(r *probeRun, name string, spec workload.Spec) error {
	res, err := workload.Run(spec)
	if err != nil {
		return err
	}
	r.output(name, res)
	t, err := timeIt(func() error { _, err := workload.Run(spec); return err })
	if err != nil {
		return err
	}
	r.set(name+"_ms", t*1e3, "ms")
	return nil
}

// --- tune and cache ----------------------------------------------------

// probeTuneCells times one cell per kernel op of the default set: the
// first kernel with that op, cell chosen by the seed. Each re-measured
// bandwidth must equal the committed table's.
func probeTuneCells(r *probeRun) error {
	rng := rand.New(rand.NewSource(r.seed))
	seen := map[string]bool{}
	launch := r.table.Grid.LaunchPPN
	for _, k := range tune.DefaultKernels() {
		if seen[k.Op] {
			continue
		}
		seen[k.Op] = true
		e := r.table.Lookup(k)
		if e == nil || len(e.Cells) == 0 {
			r.failed("tune.cell."+k.Op, fmt.Errorf("kernel %s not in %s", k.Name(), tuningPath))
			continue
		}
		c := e.Cells[rng.Intn(len(e.Cells))]
		var bw float64
		t, err := timeIt(func() error {
			var err error
			bw, err = tune.Measure(k, c.Params, launch)
			return err
		})
		r.rep.Attempted++
		if err != nil {
			r.rep.fail("tune.cell."+k.Op, "%v", err)
			continue
		}
		if bw != c.BW {
			r.rep.fail("tune.cell."+k.Op, "%s %+v: bw %v, committed %v", k.Name(), c.Params, bw, c.BW)
		}
		r.set("tune.cell_ms."+k.Op, t*1e3, "ms")
	}
	return nil
}

// probeWarmSearch reproduces the tune-quick warm pass without its cold
// half: a store seeded from the committed table (no simulation), then a
// cache-only search over it, timed. Every lookup must hit.
func probeWarmSearch(r *probeRun) error {
	store := cache.New(0)
	opts := tune.Options{Grid: tune.QuickGrid(), Workers: poolWorkers(), Cache: store}
	seed := opts
	seed.Warm = r.table
	if _, err := tune.Search(seed); err != nil {
		return err
	}
	s0 := store.Stats()
	reps := 0
	t, err := timeIt(func() error {
		reps++
		_, err := tune.Search(opts)
		return err
	})
	if err != nil {
		return err
	}
	s1 := store.Stats()
	hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses
	r.rep.Counts["cache.warm_search.hits"] = int64(hits) / int64(reps)
	r.rep.Counts["cache.warm_search.misses"] = int64(misses)
	r.rep.Attempted++
	if misses != 0 {
		r.rep.fail("cache.warm_search", "%d misses on a warm store", misses)
	}
	r.set("tune.warm_search_ms", t*1e3, "ms")
	r.set("cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	return nil
}

// probeCacheOps times the store's two primitives on the tuner's key shape
// (16 hex digits): inserting fresh keys, and hitting them.
func probeCacheOps(r *probeRun) error {
	const n = 1 << 16
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
	}
	var store *cache.Store
	put, err := timeIt(func() error {
		store = cache.New(0)
		for i, k := range keys {
			store.Put(k, float64(i))
		}
		return nil
	})
	if err != nil {
		return err
	}
	misses := 0
	hit, err := timeIt(func() error {
		misses = 0
		for i, k := range keys {
			if v, ok := store.Get(k); !ok || v != float64(i) {
				misses++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.Attempted++
	if misses != 0 {
		r.rep.fail("cache.ops", "%d of %d stored keys missed or changed", misses, n)
	}
	r.set("cache.put_ns", put*1e9/n, "ns")
	r.set("cache.hit_ns", hit*1e9/n, "ns")
	return nil
}
