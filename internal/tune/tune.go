// Package tune is the per-kernel overlap auto-tuner: given a set of kernel
// descriptors (collective operation, payload, node count), it sweeps the
// overlap parameter space the paper exposes — N_DUP, active PPN (surplus
// ranks parked on an Ibarrier), the collective algorithm switch-over points
// and the fabric protocol knobs — over independent simulator replicas and
// persists the measured bandwidths plus the winner per kernel as a JSON
// tuning table.
//
// Every cell is an isolated simulation fanned through internal/runner, so
// the search is deterministic: the table is byte-identical at any worker
// count. Each cell also carries a provenance hash of everything that
// determines its bandwidth (machine config, kernel, parameters, launch
// width); a warm start re-evaluates only the cells whose hash changed.
package tune

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"commoverlap/internal/cache"
	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/runner"
	"commoverlap/internal/simnet"
	"commoverlap/internal/workload"
)

// Kernel describes one communication kernel to tune: a collective operation
// of a total payload across a node count, on a named fabric topology.
// Besides the bare collectives, the ML-workload patterns from
// internal/workload ("dp", "zero", "pipeline") are kernels too: those
// measure the whole overlapped training step on the accelerator preset, so
// the table learns per-workload (N_DUP, PPN, algorithm) winners.
type Kernel struct {
	Op    string `json:"op"`    // "bcast", "reduce", "allreduce", "dp", "zero" or "pipeline"
	Bytes int64  `json:"bytes"` // total collective payload in bytes
	Nodes int    `json:"nodes"` // participating nodes
	// Topo names the fabric the kernel runs on (simnet.TopoByName); empty is
	// the flat fabric. Winners are learned per topology: the same collective
	// tunes differently on a hierarchical fabric than on a flat one.
	Topo string `json:"topo,omitempty"`
}

// Name returns the kernel's stable identifier, e.g. "reduce-16MiB-4n" or
// "allreduce-4MiB-8n@hier".
func (k Kernel) Name() string {
	name := fmt.Sprintf("%s-%s-%dn", k.Op, sizeLabel(k.Bytes), k.Nodes)
	if k.Topo != "" {
		name += "@" + k.Topo
	}
	return name
}

// workloadOp reports whether the kernel op is an ML-workload pattern
// measured through internal/workload rather than a bare collective.
func workloadOp(op string) bool {
	switch workload.Pattern(op) {
	case workload.DataParallel, workload.ZeRO, workload.Pipeline:
		return true
	}
	return false
}

func (k Kernel) validate() error {
	if k.Op != "bcast" && k.Op != "reduce" && k.Op != "allreduce" && !workloadOp(k.Op) {
		return fmt.Errorf("tune: kernel op %q (want bcast, reduce, allreduce, dp, zero or pipeline)", k.Op)
	}
	if k.Bytes <= 0 {
		return fmt.Errorf("tune: kernel bytes %d", k.Bytes)
	}
	if k.Nodes <= 1 {
		return fmt.Errorf("tune: kernel nodes %d", k.Nodes)
	}
	if _, err := simnet.TopoByName(k.Topo, k.Nodes); err != nil {
		return fmt.Errorf("tune: kernel topo: %w", err)
	}
	return nil
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Params is one cell of the overlap parameter space. The protocol knobs are
// optional: zero means "the calibrated default".
type Params struct {
	// NDup is the number of duplicated communicators, each carrying 1/NDup
	// of the payload (the nonblocking-overlap width).
	NDup int `json:"ndup"`
	// PPN is the number of active ranks per node; the kernel's collective
	// runs in PPN column communicators of one rank per node each, and the
	// surplus launched ranks park (the per-kernel PPN mechanism).
	PPN int `json:"ppn"`
	// BcastLongMsg and ReduceLongMsg override the collective-algorithm
	// switch-over points (per-World configuration).
	BcastLongMsg  int64 `json:"bcast_long_msg,omitempty"`
	ReduceLongMsg int64 `json:"reduce_long_msg,omitempty"`
	// ChunkBytes and EagerLimit override the fabric protocol.
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	EagerLimit int64 `json:"eager_limit,omitempty"`
	// Alg forces one member of the kernel operation's collective-algorithm
	// family (mpi.AlgRing, ...); empty keeps switch-point auto selection.
	Alg string `json:"alg,omitempty"`
	// Progress selects the asynchronous progress engine (progress.Parse
	// labels: "" = off, "rankN" = N progress agents per node taken out of
	// the launched lanes, "dma" = per-node offload engine). The third
	// overlap mechanism, tuned head-to-head against NDup and PPN.
	Progress string `json:"progress,omitempty"`
}

func (p Params) validate() error {
	if p.NDup <= 0 || p.PPN <= 0 {
		return fmt.Errorf("tune: params ndup=%d ppn=%d", p.NDup, p.PPN)
	}
	if _, err := progress.Parse(p.Progress); err != nil {
		return fmt.Errorf("tune: params progress: %w", err)
	}
	return nil
}

// label is the canonical cell key used for hashing, warm-start matching and
// CSV output.
func (p Params) label() string {
	return fmt.Sprintf("ndup=%d,ppn=%d,bcastlong=%d,reducelong=%d,chunk=%d,eager=%d,alg=%s,prog=%s",
		p.NDup, p.PPN, p.BcastLongMsg, p.ReduceLongMsg, p.ChunkBytes, p.EagerLimit, p.Alg, p.Progress)
}

// Grid is the parameter grid a search sweeps: the cross product of NDups,
// PPNs and Protocols (protocol-knob variants; include the zero Params for
// the calibrated default).
type Grid struct {
	Name  string `json:"name"`
	NDups []int  `json:"ndups"`
	PPNs  []int  `json:"ppns"`
	// LaunchPPN is how many ranks per node every measurement job launches;
	// cells with PPN < LaunchPPN park the surplus. Keeping it constant
	// across cells makes the parked-rank overhead part of the measurement,
	// exactly as in a real application that launches once.
	LaunchPPN int `json:"launch_ppn"`
	// Protocols are the protocol-knob variants to cross with every
	// (NDup, PPN); only the knob fields of each entry are read.
	Protocols []Params `json:"protocols"`
	// Algs are the collective algorithms to cross in (empty string = auto
	// switch-point selection). Nil means auto only. Entries that are not in
	// the kernel operation's family are skipped for that kernel, so one list
	// can mix bcast, reduce and allreduce algorithms.
	Algs []string `json:"algs,omitempty"`
	// Progresses are the progress-engine variants to cross in (progress
	// labels; include "" for the engine-off baseline). Nil means engine off
	// only. The axis is orthogonal to algorithm choice, so engine-on
	// variants are crossed with the auto algorithm only, which bounds the
	// sweep; rankN variants additionally skip PPNs that leave no launched
	// lane for the agents.
	Progresses []string `json:"progresses,omitempty"`
}

// QuickGrid is the coarse grid behind `overlapbench tune -quick` and the CI
// smoke table: the calibrated protocol with the overlap axes only.
func QuickGrid() Grid {
	return Grid{
		Name:      "quick",
		NDups:     []int{1, 2, 4, 8},
		PPNs:      []int{1, 2, 4},
		LaunchPPN: 4,
		Protocols: []Params{{}},
		// Auto plus the two allreduce schedules whose winner flips between
		// flat and hierarchical fabrics; bcast/reduce kernels sweep auto only.
		Algs: []string{mpi.AlgAuto, mpi.AlgRing, mpi.AlgShift},
		// Engine off, one progress agent per node, and the DMA engine: the
		// three-mechanism head-to-head the progress experiment reports.
		Progresses: []string{"", "rank1", "dma"},
	}
}

// FullGrid is the full search space: N_DUP 1..8, PPN up to 8, and the
// protocol variants (forced collective algorithms, chunk sizes, eager
// limit) crossed in.
func FullGrid() Grid {
	return Grid{
		Name:      "full",
		NDups:     []int{1, 2, 3, 4, 5, 6, 7, 8},
		PPNs:      []int{1, 2, 4, 8},
		LaunchPPN: 8,
		Protocols: []Params{
			{},                       // calibrated default
			{BcastLongMsg: 1 << 30},  // force binomial bcast
			{ReduceLongMsg: 1 << 30}, // force binomial reduce
			{ChunkBytes: 64 << 10},   // finer pipeline
			{ChunkBytes: 1 << 20},    // coarser pipeline
			{EagerLimit: 1},          // rendezvous everything
		},
		Algs: append([]string{mpi.AlgAuto},
			append(mpi.BcastAlgs(), append(mpi.ReduceAlgs(), mpi.AllreduceAlgs()...)...)...),
		Progresses: []string{"", "rank1", "rank2", "dma"},
	}
}

func (g Grid) validate() error {
	if len(g.NDups) == 0 || len(g.PPNs) == 0 || len(g.Protocols) == 0 {
		return fmt.Errorf("tune: empty grid axis")
	}
	if g.LaunchPPN <= 0 {
		return fmt.Errorf("tune: launch PPN %d", g.LaunchPPN)
	}
	for _, ppn := range g.PPNs {
		if ppn <= 0 || ppn > g.LaunchPPN {
			return fmt.Errorf("tune: grid PPN %d outside 1..%d", ppn, g.LaunchPPN)
		}
	}
	for _, prog := range g.Progresses {
		if _, err := progress.Parse(prog); err != nil {
			return fmt.Errorf("tune: grid progress axis: %w", err)
		}
	}
	return nil
}

// cellsFor returns the grid's parameter cells for one kernel, in canonical
// order (algorithm, then progress engine, then protocol, then NDup, then
// PPN). Variants that cannot change the kernel's schedule are skipped:
// algorithms outside the operation's family, protocol variants that only
// move the other operation's switch point, any switch-point-only variant
// when the algorithm is forced (a forced algorithm never consults the
// switch points), and (PPN, progress) pairs whose agents would not fit in
// the launched lanes.
func (g Grid) cellsFor(k Kernel) []Params {
	var out []Params
	for _, alg := range g.algsFor(k.Op) {
		for _, prog := range g.progressesFor(alg) {
			lanes := progress.MustParse(prog).LanesNeeded()
			for _, proto := range g.Protocols {
				if skipProto(k.Op, alg, proto) {
					continue
				}
				for _, ndup := range g.NDups {
					for _, ppn := range g.PPNs {
						if ppn+lanes > g.LaunchPPN {
							continue
						}
						p := proto
						p.NDup, p.PPN, p.Alg, p.Progress = ndup, ppn, alg, prog
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// progressesFor filters the grid's progress-engine axis for one algorithm:
// the engine is orthogonal to algorithm choice, so engine-on variants are
// crossed with the auto algorithm only.
func (g Grid) progressesFor(alg string) []string {
	if len(g.Progresses) == 0 || alg != mpi.AlgAuto {
		return []string{""}
	}
	return g.Progresses
}

// algsFor filters the grid's algorithm list down to the members applicable
// to one operation (auto always applies), deduplicated in list order. A nil
// list means auto only.
func (g Grid) algsFor(op string) []string {
	if len(g.Algs) == 0 {
		return []string{mpi.AlgAuto}
	}
	var fam []string
	switch op {
	case "bcast":
		fam = mpi.BcastAlgs()
	case "reduce":
		fam = mpi.ReduceAlgs()
	case "zero", "pipeline":
		// The ring reduce-scatter/allgather pair and the p2p chain have no
		// algorithm family to force.
		return []string{mpi.AlgAuto}
	default:
		// allreduce, and the dp workload whose collective is an allreduce.
		fam = mpi.AllreduceAlgs()
	}
	inFamily := func(alg string) bool {
		for _, a := range fam {
			if a == alg {
				return true
			}
		}
		return false
	}
	var out []string
	seen := make(map[string]bool)
	for _, alg := range g.Algs {
		if seen[alg] || (alg != mpi.AlgAuto && !inFamily(alg)) {
			continue
		}
		seen[alg] = true
		out = append(out, alg)
	}
	return out
}

// skipProto reports whether a protocol variant cannot change the kernel's
// schedule: a switch-point-only variant is dead weight when the algorithm is
// forced, and otherwise only the kernel operation's own switch point matters
// (allreduce selects on the reduce switch point).
func skipProto(op, alg string, proto Params) bool {
	if !onlySwitchKnob(proto) || (proto.BcastLongMsg == 0 && proto.ReduceLongMsg == 0) {
		return false
	}
	if op == "zero" || op == "pipeline" {
		return true // no switch-point selection anywhere in these patterns
	}
	if alg != mpi.AlgAuto {
		return true
	}
	if op == "bcast" {
		return proto.BcastLongMsg == 0
	}
	return proto.ReduceLongMsg == 0
}

// onlySwitchKnob reports whether the variant touches nothing but the
// collective switch-over points.
func onlySwitchKnob(p Params) bool {
	return p.ChunkBytes == 0 && p.EagerLimit == 0
}

// DefaultKernels is the kernel set the paper's evaluation exercises: the
// Fig. 5 micro-benchmark regimes (large and small payloads on 4 nodes), the
// 64-node paper-scale reduction, and the topology pair — the same allreduce
// on the flat and hierarchical fabrics, whose winners the table learns
// separately.
func DefaultKernels() []Kernel {
	return []Kernel{
		{Op: "reduce", Bytes: 16 << 20, Nodes: 4},
		{Op: "bcast", Bytes: 16 << 20, Nodes: 4},
		{Op: "reduce", Bytes: 64 << 10, Nodes: 4},
		{Op: "reduce", Bytes: 16 << 20, Nodes: 64},
		{Op: "allreduce", Bytes: 4 << 20, Nodes: 8},
		{Op: "allreduce", Bytes: 4 << 20, Nodes: 8, Topo: "hier"},
		// The ML-workload patterns on the accelerator preset: a bucketed
		// data-parallel gradient exchange, a ZeRO-style sharded step on the
		// hierarchical fabric (NVLink-flavored intra-node bus behind shared
		// uplinks), and pipeline-parallel microbatching.
		{Op: "dp", Bytes: 8 << 20, Nodes: 8},
		{Op: "zero", Bytes: 8 << 20, Nodes: 8, Topo: "hier"},
		{Op: "pipeline", Bytes: 1 << 20, Nodes: 8},
	}
}

// Measure runs one cell: a fresh simulated machine of k.Nodes nodes with
// grid-constant launchPPN ranks per node, p.PPN of them active. The active
// ranks run the collective split across p.PPN column communicators (one
// rank per node each) times p.NDup duplicates; the surplus ranks park on an
// Ibarrier with the paper's Test+usleep poll. Returns bandwidth in bytes/s
// under the paper's volume convention (2(p-1)/p * n).
func Measure(k Kernel, p Params, launchPPN int) (float64, error) {
	if workloadOp(k.Op) {
		if err := validateCell(k, p, launchPPN); err != nil {
			return 0, err
		}
		return measureWorkload(k, p, launchPPN)
	}
	bw, _, err := MeasureCollective(k, p, launchPPN, nil)
	return bw, err
}

// validateCell rejects a cell Measure cannot run: a bad kernel or
// parameters, or progress agents that do not fit in the launched lanes.
func validateCell(k Kernel, p Params, launchPPN int) error {
	if err := k.validate(); err != nil {
		return err
	}
	if err := p.validate(); err != nil {
		return err
	}
	if lanes := progress.MustParse(p.Progress).LanesNeeded(); p.PPN+lanes > launchPPN {
		return fmt.Errorf("tune: PPN %d + %d progress lanes exceed launch PPN %d", p.PPN, lanes, launchPPN)
	}
	return nil
}

// preset is the fabric calibration a kernel is measured on (before the
// cell's protocol overrides and the kernel's topology): the accelerator
// preset for workload kernels, the paper's machine for bare collectives.
func preset(k Kernel) simnet.Config {
	if workloadOp(k.Op) {
		return workload.AcceleratorConfig(k.Nodes)
	}
	return simnet.DefaultConfig(k.Nodes)
}

// fabric is the kernel's preset with the cell's protocol overrides.
func fabric(k Kernel, p Params) simnet.Config {
	cfg := preset(k)
	if p.ChunkBytes != 0 {
		cfg.ChunkBytes = p.ChunkBytes
	}
	if p.EagerLimit != 0 {
		cfg.EagerLimit = p.EagerLimit
	}
	return cfg
}

// MeasureCollective is Measure for the bare-collective kernels (bcast,
// reduce, allreduce) with sink installed as the job's metrics sink (nil =
// none). It also returns the finished world, for post-run resource reads.
func MeasureCollective(k Kernel, p Params, launchPPN int, sink *metrics.Registry) (float64, *mpi.World, error) {
	if err := validateCell(k, p, launchPPN); err != nil {
		return 0, nil, err
	}
	if workloadOp(k.Op) {
		return 0, nil, fmt.Errorf("tune: %s is a workload kernel, not a collective", k.Op)
	}
	ranks := k.Nodes * launchPPN
	m := machine.Spec{
		Config:        fabric(k, p),
		Topo:          k.Topo,
		Ranks:         ranks,
		Placement:     mesh.NaturalPlacement(ranks, launchPPN),
		Progress:      progress.MustParse(p.Progress),
		BcastLongMsg:  p.BcastLongMsg,
		ReduceLongMsg: p.ReduceLongMsg,
		Metrics:       sink,
	}
	switch k.Op {
	case "bcast":
		m.BcastAlg = p.Alg
	case "reduce":
		m.ReduceAlg = p.Alg
	case "allreduce":
		m.AllreduceAlg = p.Alg
	}
	var elapsed float64
	w, err := m.Run(func(pr *mpi.Proc) {
		// Column communicators (one rank per node each) are split off while
		// every rank is awake — communicator creation is collective — and
		// only then do the surplus ranks park.
		lane := pr.Rank() % launchPPN
		color := lane
		if lane >= p.PPN {
			color = -1
		}
		col := pr.World().Split(color, pr.Rank()/launchPPN)
		var comms []*mpi.Comm
		if col != nil {
			comms = col.DupN(p.NDup)
		}
		mpi.RunActive(pr, pr.World(), col != nil, mpi.DefaultPollInterval, func() {
			t0 := pr.Now()
			share := k.Bytes / int64(p.PPN) / int64(p.NDup)
			if share == 0 {
				share = 1
			}
			reqs := make([]*mpi.Request, p.NDup)
			for d := 0; d < p.NDup; d++ {
				b := mpi.Phantom(share)
				switch k.Op {
				case "bcast":
					reqs[d] = comms[d].Ibcast(0, b)
				case "allreduce":
					reqs[d] = comms[d].Iallreduce(b, mpi.OpSum)
				default:
					reqs[d] = comms[d].Ireduce(0, b, b, mpi.OpSum)
				}
			}
			mpi.Waitall(reqs...)
			if dt := pr.Now() - t0; dt > elapsed {
				elapsed = dt
			}
		})
	})
	if err != nil {
		return 0, nil, err
	}
	vol := 2 * float64(k.Nodes-1) / float64(k.Nodes) * float64(k.Bytes)
	return vol / elapsed, w, nil
}

// workloadUnits is the fixed bucket/shard/microbatch count a workload
// kernel is measured with; the kernel's Bytes split evenly across units.
const workloadUnits = 8

// measureWorkload runs one workload-kernel cell: the overlapped variant of
// the pattern on the accelerator preset, with the cell's NDup/PPN/Alg and
// protocol overrides. Goodput (pattern payload volume over the slowest
// active rank's step time) is the measure the table optimizes.
func measureWorkload(k Kernel, p Params, launchPPN int) (float64, error) {
	cfg := fabric(k, p)
	elems := int(k.Bytes/8) / workloadUnits
	if elems < 1 {
		elems = 1
	}
	res, err := workload.Run(workload.Spec{
		Pattern:   workload.Pattern(k.Op),
		Nodes:     k.Nodes,
		LaunchPPN: launchPPN,
		PPN:       p.PPN,
		NDup:      p.NDup,
		Units:     workloadUnits,
		Elems:     elems,
		Overlap:   true,
		Alg:       p.Alg,
		Progress:  p.Progress,
		Topo:      k.Topo,
		Config:    &cfg,
	})
	if err != nil {
		return 0, err
	}
	return res.Goodput(), nil
}

// cellHash fingerprints everything that determines one cell's bandwidth:
// the table format version, the machine calibration, the kernel, the
// parameters and the launch width. Warm starts reuse a persisted cell only
// when its hash still matches. The Go version and seed are provenance of
// the table, not of the physics, so they stay out of the hash — the
// simulator is exact arithmetic over a deterministic schedule.
func cellHash(k Kernel, p Params, launchPPN int) string {
	cfg := preset(k)
	cfg.Topo, _ = simnet.TopoByName(k.Topo, k.Nodes) // validated by the caller
	return hashCell(cfg, k, p, launchPPN)
}

// hashCell is the hash itself, split out so the cache-key integrity tests
// can prove that every field of the machine configuration — including the
// accelerator preset behind the workload kernels — moves the key.
func hashCell(cfg simnet.Config, k Kernel, p Params, launchPPN int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%+v|%s/%d/%d/%s|%s|launch=%d",
		TableVersion, cfg, k.Op, k.Bytes, k.Nodes, k.Topo, p.label(), launchPPN)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Options configures a search.
type Options struct {
	Grid    Grid
	Kernels []Kernel // nil = DefaultKernels
	// Workers bounds the replica pool (0 = OVERLAP_WORKERS or GOMAXPROCS,
	// 1 = sequential). The table is byte-identical at any width.
	Workers int
	// Seed is recorded as provenance. The simulator is deterministic, so it
	// does not perturb the measurements; it exists so noise-perturbed
	// variants of the search stay reproducible.
	Seed int64
	// Warm, when non-nil, is a previously persisted table: cells whose
	// provenance hash still matches are reused without re-simulation.
	Warm *Table
	// Cache, when non-nil, is a content-addressed result store consulted
	// (after the warm table, before simulating) under each cell's
	// provenance hash. Cells measured by this search — and warm-table
	// reuses — are written back, so a later identical search on the same
	// store hits instead of re-simulating. The resulting table is
	// byte-identical with or without a cache at any worker count: the
	// simulator is deterministic, so a hash hit and a fresh measurement
	// are the same number.
	Cache *cache.Store
	// Progress, when non-nil, receives one line per kernel as the search
	// completes it.
	Progress func(string)
}

// Search sweeps the grid over every kernel and returns the tuning table.
// All cells across all kernels fan through one index-keyed worker pool, so
// the result is byte-identical at any worker count.
func Search(opts Options) (*Table, error) {
	if err := opts.Grid.validate(); err != nil {
		return nil, err
	}
	kernels := opts.Kernels
	if kernels == nil {
		kernels = DefaultKernels()
	}
	for _, k := range kernels {
		if err := k.validate(); err != nil {
			return nil, err
		}
	}
	// Flatten (kernel, cell) into one case list.
	type caseRef struct {
		ki     int
		params Params
		hash   string
	}
	var cases []caseRef
	perKernel := make([][]Params, len(kernels))
	for ki, k := range kernels {
		perKernel[ki] = opts.Grid.cellsFor(k)
		for _, p := range perKernel[ki] {
			cases = append(cases, caseRef{ki, p, cellHash(k, p, opts.Grid.LaunchPPN)})
		}
	}
	// In-job dedup: the provenance hash covers everything that determines a
	// cell's bandwidth, so two cases with one hash — a kernel listed twice,
	// a grid axis with repeated values — are the same simulation. Only the
	// first occurrence (the leader) is fanned to the pool; its duplicates
	// copy the result. This holds even without a result cache.
	leaderOf := make(map[string]int) // hash -> leader case index
	dupOf := make([]int, len(cases)) // case -> leader case index (-1 = leader)
	var leaders []int                // leader case indices, in case order
	for i, cr := range cases {
		if li, ok := leaderOf[cr.hash]; ok {
			dupOf[i] = li
			continue
		}
		leaderOf[cr.hash] = i
		dupOf[i] = -1
		leaders = append(leaders, i)
	}
	warm := warmIndex(opts.Warm)
	// Issue expensive replicas first. Grid cases span orders of magnitude
	// (a 1-rank kernel vs a 216-rank one): under FIFO order a worker that
	// draws a monster case last keeps the whole pool waiting on it alone.
	// Simulation cost scales with the event count — roughly ranks × bytes
	// for the collective schedules — and warm-reused cells cost nothing,
	// so they backfill at the end. The order affects scheduling only;
	// results stay index-keyed, so the table is still byte-identical at
	// any worker count.
	costs := make([]float64, len(leaders))
	for j, li := range leaders {
		cr := cases[li]
		if _, ok := warm[warmKey{kernels[cr.ki].Name(), cr.hash}]; ok {
			continue // warm hit: no simulation, schedule last
		}
		k := kernels[cr.ki]
		costs[j] = float64(k.Nodes*opts.Grid.LaunchPPN) * float64(k.Bytes)
	}
	leaderCells, err := runner.MapOrder(len(leaders), opts.Workers, runner.OrderByCostDesc(costs), func(j int) (Cell, error) {
		li := leaders[j]
		cr := cases[li]
		cell := Cell{Params: cr.params, Hash: cr.hash}
		if bw, ok := warm[warmKey{kernels[cr.ki].Name(), cr.hash}]; ok {
			cell.BW = bw
			cell.Warm = true
			if opts.Cache != nil {
				// Seed the store: the warm table vouches for the value under
				// the same provenance hash the cache keys on.
				opts.Cache.Put(cr.hash, bw)
			}
			return cell, nil
		}
		var bw float64
		var err error
		if opts.Cache != nil {
			bw, cell.Cached, err = opts.Cache.GetOrCompute(cr.hash, func() (float64, error) {
				return Measure(kernels[cr.ki], cr.params, opts.Grid.LaunchPPN)
			})
		} else {
			bw, err = Measure(kernels[cr.ki], cr.params, opts.Grid.LaunchPPN)
		}
		cell.BW = bw
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	// Expand leaders back to the full case list: a duplicate is its
	// leader's cell marked Dup (the marks are in-memory only, so the
	// persisted table is byte-identical to a dedup-free search).
	cells := make([]Cell, len(cases))
	for j, li := range leaders {
		cells[li] = leaderCells[j]
	}
	for i := range cases {
		if li := dupOf[i]; li >= 0 {
			c := cells[li]
			c.Dup = true
			cells[i] = c
		}
	}
	t := &Table{
		Version:   TableVersion,
		Grid:      opts.Grid,
		Seed:      opts.Seed,
		GoVersion: runtime.Version(),
	}
	t.ConfigHash = t.configHash(kernels)
	ci := 0
	for ki, k := range kernels {
		e := Entry{Kernel: k}
		for range perKernel[ki] {
			e.Cells = append(e.Cells, cells[ci])
			ci++
		}
		e.pickBest()
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-20s %3d cells, best %s at %.0f MB/s",
				k.Name(), len(e.Cells), e.Best.label(), e.BestBW/1e6))
		}
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

// MeasureCached is Measure through a content-addressed store: the cell's
// provenance hash is looked up first, concurrent identical cells coalesce
// onto one simulation, and the measured value is stored for the next
// caller. A nil store degrades to a plain Measure. The returned hit flag
// reports whether a simulation was avoided.
func MeasureCached(c *cache.Store, k Kernel, p Params, launchPPN int) (bw float64, hit bool, err error) {
	if c == nil {
		bw, err = Measure(k, p, launchPPN)
		return bw, false, err
	}
	if err := k.validate(); err != nil {
		return 0, false, err
	}
	if err := p.validate(); err != nil {
		return 0, false, err
	}
	return c.GetOrCompute(cellHash(k, p, launchPPN), func() (float64, error) {
		return Measure(k, p, launchPPN)
	})
}

// warmKey identifies a reusable cell: same kernel, same provenance hash.
type warmKey struct {
	kernel string
	hash   string
}

func warmIndex(t *Table) map[warmKey]float64 {
	idx := make(map[warmKey]float64)
	if t == nil {
		return idx
	}
	for _, e := range t.Entries {
		for _, c := range e.Cells {
			idx[warmKey{e.Kernel.Name(), c.Hash}] = c.BW
		}
	}
	return idx
}

// pickBest selects the entry's winner: the highest bandwidth, first cell in
// canonical order on exact ties.
func (e *Entry) pickBest() {
	for _, c := range e.Cells {
		if c.BW > e.BestBW {
			e.BestBW = c.BW
			e.Best = c.Params
		}
	}
}
