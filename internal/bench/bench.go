// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated machine: the point-to-point
// bandwidth sweep (Fig. 3), the collective micro-benchmark (Fig. 5), the
// operation timeline (Fig. 6), the SymmSquareCube variant and N_DUP tables
// (Tables I and II), the multiple-PPN sweep (Table III), the estimated vs
// actual communication analysis (Table IV), and the 2.5D sweep (Table V).
//
// Each experiment has a Run function that writes a paper-style text table
// to an io.Writer and returns the underlying numbers so tests can assert
// the qualitative claims (who wins, by roughly what factor).
package bench

import (
	"fmt"
	"io"
	"strings"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/runner"
	"commoverlap/internal/simnet"
)

// Metrics, when non-nil, is installed as the virtual-time metrics sink of
// every simulated job the experiments run (overlapbench -metrics sets it).
// A non-nil registry forces the experiments' replica pool down to one
// worker, so the single registry accumulates across a whole experiment in
// deterministic order without races.
var Metrics *metrics.Registry

// Workers bounds how many independent simulation replicas (experiment
// cells) run concurrently: 0 picks the runner default (OVERLAP_WORKERS or
// GOMAXPROCS), 1 forces the sequential order. Each cell is an isolated
// sim.Engine with no shared state, and results are keyed by case index, so
// the emitted tables and CSVs are byte-identical at any worker count.
var Workers int

// parcases fans an experiment's independent cells across the replica pool
// and returns the results in case order. The shared metrics registry (when
// installed) is the one piece of cross-job state, so it pins the pool to
// one worker to keep its accumulation order deterministic.
func parcases[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	w := Workers
	if Metrics != nil {
		w = 1
	}
	return runner.Map(n, w, fn)
}

// System names a molecular test system from the paper (Table I): the
// matrix dimension is all the kernel needs.
type System struct {
	Name string
	N    int
	Ne   int // electron count used by the purification application
}

// Systems are the paper's three test systems (dimensions from Table I).
// The electron counts are synthetic (about one per five basis functions),
// chosen only to give purification realistic iteration counts.
var Systems = []System{
	{Name: "1hsg_45", N: 5330, Ne: 1066},
	{Name: "1hsg_60", N: 6895, Ne: 1379},
	{Name: "1hsg_70", N: 7645, Ne: 1529},
}

// machineFor is the calibrated machine of nodes nodes running ranks ranks
// under placement (nil = round robin), with the package metrics sink.
func machineFor(nodes, ranks int, placement []int) machine.Spec {
	return machine.Spec{
		Config:    simnet.DefaultConfig(nodes),
		Ranks:     ranks,
		Placement: placement,
		Metrics:   Metrics,
	}
}

// job runs body on a fresh calibrated machine and returns the finished
// world, for byte accounting and resource-utilization snapshots; the error
// reports a simulation deadlock.
func job(nodes, ranks int, placement []int, body func(p *mpi.Proc)) (*mpi.World, error) {
	return machineFor(nodes, ranks, placement).Run(body)
}

// UtilStats summarizes one job's resource occupancy over its elapsed
// virtual time, grouped into the three lane classes the fabric models:
// inter-node wires (node egress), per-rank CPU lanes (software costs:
// staging, posting, reduction arithmetic) and per-rank NIC lanes (transfer
// progress). Each is the mean busy fraction over that class, in [0, 1].
type UtilStats struct {
	Elapsed float64 // virtual seconds the job ran
	Wire    float64 // mean busy fraction of node egress wires
	CPU     float64 // mean busy fraction of rank CPU lanes
	NIC     float64 // mean busy fraction of rank NIC lanes
	// Offload is the mean busy fraction of the per-node DMA offload engines
	// (zero when the progress engine's offload mode is off).
	Offload float64
}

// utilization classifies the world's post-run resource snapshots by lane
// and averages their busy fractions. Call after Engine.Run.
func utilization(w *mpi.World) UtilStats {
	u := UtilStats{Elapsed: w.Eng.Now()}
	if u.Elapsed <= 0 {
		return u
	}
	var nWire, nCPU, nNIC, nOff int
	for _, s := range w.ResourceSnapshots() {
		f := s.Utilization(u.Elapsed)
		switch {
		case strings.HasSuffix(s.Name, ".egress"):
			u.Wire += f
			nWire++
		case strings.HasSuffix(s.Name, ".cpu"):
			u.CPU += f
			nCPU++
		case strings.HasSuffix(s.Name, ".nic"):
			u.NIC += f
			nNIC++
		case strings.HasSuffix(s.Name, ".offload"):
			u.Offload += f
			nOff++
		}
	}
	if nWire > 0 {
		u.Wire /= float64(nWire)
	}
	if nCPU > 0 {
		u.CPU /= float64(nCPU)
	}
	if nNIC > 0 {
		u.NIC /= float64(nNIC)
	}
	if nOff > 0 {
		u.Offload /= float64(nOff)
	}
	return u
}

// KernelRun measures one SymmSquareCube invocation.
type KernelRun struct {
	Time     float64 // max over ranks, seconds of virtual time
	GemmTime float64 // max over ranks
	CommTime float64 // Time - GemmTime of the slowest rank
	TFlops   float64
	Volume   int64 // total inter-node bytes
	Nodes    int
	// WireUtil is the mean busy fraction of the node egress wires over the
	// run, PeakWireUtil the busiest single wire — how hard the overlap
	// variants actually drive the network.
	WireUtil     float64
	PeakWireUtil float64
}

// Kernel runs a variant at (n, mesh edge p, ndup, ppn) with phantom
// payloads and returns the timing.
func Kernel(v core.Variant, n, p, ndup, ppn int) (KernelRun, error) {
	return runKernel(machine.Spec{Config: simnet.DefaultConfig(1)}, mesh.Cubic(p),
		core.Config{N: n, NDup: ndup, PPN: ppn}, variant(v))
}

// Kernel25 runs the 2.5D kernel (Algorithm 6) on a q x q x c mesh.
func Kernel25(q, c, n, ndup, ppn int) (KernelRun, error) {
	dims := mesh.Dims{Q: q, C: c}
	cfg := core.Config{N: n, NDup: ndup, PPN: ppn}
	return runKernel(machine.Spec{Config: simnet.DefaultConfig(1)}, dims, cfg,
		func(pr *mpi.Proc, _ *mpi.Comm, dims mesh.Dims, cfg core.Config) core.Result {
			env, err := core.NewEnv25(pr, dims, cfg)
			if err != nil {
				panic(err)
			}
			env.M.World.Barrier()
			return env.SymmSquareCube25(nil)
		})
}

// KernelCfg runs the optimized kernel on a p-edge cubic mesh under an
// explicit configuration — the entry point for table-driven runs with
// per-phase pipeline widths (Config.PhaseNDup).
func KernelCfg(p int, cfg core.Config) (KernelRun, error) {
	return runKernel(machine.Spec{Config: simnet.DefaultConfig(1)}, mesh.Cubic(p), cfg, variant(core.Optimized))
}

// rankKernel is one mesh rank's part of a kernel run over comm (the world,
// or the mesh ranks' working communicator when progress agents ride along).
type rankKernel func(pr *mpi.Proc, comm *mpi.Comm, dims mesh.Dims, cfg core.Config) core.Result

// variant is the rank body of a 3D SymmSquareCube variant.
func variant(v core.Variant) rankKernel {
	return func(pr *mpi.Proc, comm *mpi.Comm, dims mesh.Dims, cfg core.Config) core.Result {
		env, err := core.NewEnvOn(pr, comm, dims, cfg)
		if err != nil {
			panic(err)
		}
		env.M.World.Barrier()
		return env.SymmSquareCube(v, nil)
	}
}

// runKernel is the one kernel runner. It validates cfg, then completes the
// machine m describes (fabric and any placement or switch-point overrides)
// for the dims mesh at cfg.PPN ranks per node: node and rank counts,
// natural placement unless m has one, cfg's progress engine and the
// package metrics sink. It runs rank on every mesh rank and folds the
// per-rank results.
func runKernel(m machine.Spec, dims mesh.Dims, cfg core.Config, rank rankKernel) (KernelRun, error) {
	if err := cfg.Validate(); err != nil {
		return KernelRun{}, err
	}
	sp := progress.MustParse(cfg.Progress) // validated above
	ppn := cfg.PPN
	if ppn == 0 {
		ppn = 1
	}
	nodes := mesh.NodesNeeded(dims.Size(), ppn)
	agents := sp.LanesNeeded()
	// Rank-mode progress agents ride in extra launched lanes per node: the
	// mesh ranks split off a working communicator while the agent lanes
	// park (their CPUs advance the siblings' chunk pipelines).
	launchPPN := ppn + agents
	m.Config.Nodes = nodes
	m.Ranks = dims.Size()
	if agents > 0 {
		m.Ranks = nodes * launchPPN
	}
	if m.Placement == nil {
		m.Placement = mesh.NaturalPlacement(m.Ranks, launchPPN)
	}
	m.Progress = sp
	m.Metrics = Metrics
	out := KernelRun{Nodes: nodes}
	w, err := m.Run(func(pr *mpi.Proc) {
		if agents == 0 {
			accumulate(&out, rank(pr, pr.World(), dims, cfg))
			return
		}
		node, lane := pr.Rank()/launchPPN, pr.Rank()%launchPPN
		color := -1
		if lane < ppn && node*ppn+lane < dims.Size() {
			color = 0
		}
		sub := pr.World().Split(color, node*ppn+lane)
		mpi.RunActive(pr, pr.World(), sub != nil, mpi.DefaultPollInterval, func() {
			accumulate(&out, rank(pr, sub, dims, cfg))
		})
	})
	if err != nil {
		return out, err
	}
	finish(&out, cfg.N, w)
	return out, nil
}

func accumulate(out *KernelRun, res core.Result) {
	if res.Time > out.Time {
		out.Time = res.Time
	}
	if res.GemmTime > out.GemmTime {
		out.GemmTime = res.GemmTime
	}
	if res.Time-res.GemmTime > out.CommTime {
		out.CommTime = res.Time - res.GemmTime
	}
}

func finish(out *KernelRun, n int, w *mpi.World) {
	out.TFlops = core.KernelFlops(n) / out.Time / 1e12
	out.Volume = w.Net.TotalWireBytes()
	out.WireUtil, out.PeakWireUtil = w.Net.Utilization(w.Eng.Now())
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
