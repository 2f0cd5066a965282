// Package machine describes one simulated job — the fabric, its topology,
// the ranks and their placement, the progress engine, the per-world
// collective algorithms and switch points, and the metrics sink — and
// builds it in one fixed order. Every experiment, tuner cell, workload and
// checker scenario gets its engine and world from Spec.Build, so how a
// machine description becomes a running job is decided in one place.
package machine

import (
	"fmt"
	"slices"

	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// Spec is everything that describes a simulated job.
type Spec struct {
	// Config is the fabric calibration with any protocol or rate
	// overrides already applied; Config.Nodes is the node count. Build
	// replaces Config.Topo with the topology Topo names.
	Config simnet.Config
	// Topo names the fabric topology (simnet.TopoByName); "" is flat.
	Topo string
	// Ranks is the world size; Placement maps rank -> node (nil = round
	// robin, mpi.NewWorld's default).
	Ranks     int
	Placement []int
	// Progress is the asynchronous progress engine: its machine half (the
	// DMA offload rate) goes into the fabric, its job half (progress
	// agents) into the world.
	Progress progress.Spec
	// BcastAlg, ReduceAlg and AllreduceAlg force one member of each
	// collective family ("" = switch-point auto selection).
	BcastAlg, ReduceAlg, AllreduceAlg string
	// BcastLongMsg and ReduceLongMsg override the collective switch-over
	// points (0 = the calibrated defaults).
	BcastLongMsg, ReduceLongMsg int64
	// Metrics, when non-nil, is the job's virtual-time metrics sink.
	Metrics *metrics.Registry
}

// Build constructs the job without launching it. It first rejects the
// fields that would otherwise fail only once a rank runs — unknown
// algorithm names, negative switch points, an invalid progress engine —
// then builds in this order: the progress engine's machine half onto
// Config, the named topology into Config.Topo, the engine, fabric and
// world, the forced algorithms and switch points, the progress agents,
// and the metrics sink. Nothing is scheduled on the engine, so callers may
// still install tie-break policies, hooks or fault injectors before they
// Launch and Run.
func (s Spec) Build() (*sim.Engine, *mpi.World, error) {
	if err := s.check(); err != nil {
		return nil, nil, err
	}
	cfg := s.Config
	s.Progress.ApplyConfig(&cfg)
	topo, err := simnet.TopoByName(s.Topo, cfg.Nodes)
	if err != nil {
		return nil, nil, err
	}
	cfg.Topo = topo
	eng := sim.NewEngine()
	net, err := simnet.New(eng, cfg)
	if err != nil {
		return nil, nil, err
	}
	w, err := mpi.NewWorld(net, s.Ranks, s.Placement)
	if err != nil {
		return nil, nil, err
	}
	w.BcastAlg, w.ReduceAlg, w.AllreduceAlg = s.BcastAlg, s.ReduceAlg, s.AllreduceAlg
	if s.BcastLongMsg != 0 {
		w.BcastLongMsg = s.BcastLongMsg
	}
	if s.ReduceLongMsg != 0 {
		w.ReduceLongMsg = s.ReduceLongMsg
	}
	s.Progress.ApplyWorld(w)
	if s.Metrics != nil {
		w.SetMetrics(s.Metrics)
	}
	return eng, w, nil
}

// check validates the fields the fabric and world constructors do not see,
// naming the offending field and its value.
func (s Spec) check() error {
	for _, a := range []struct {
		field, name string
		known       []string
	}{
		{"BcastAlg", s.BcastAlg, mpi.BcastAlgs()},
		{"ReduceAlg", s.ReduceAlg, mpi.ReduceAlgs()},
		{"AllreduceAlg", s.AllreduceAlg, mpi.AllreduceAlgs()},
	} {
		if a.name != mpi.AlgAuto && !slices.Contains(a.known, a.name) {
			return fmt.Errorf("machine: %s %q unknown, want one of %q or %q (auto)", a.field, a.name, a.known, mpi.AlgAuto)
		}
	}
	if s.BcastLongMsg < 0 {
		return fmt.Errorf("machine: BcastLongMsg %d, need >= 0 (0 = default)", s.BcastLongMsg)
	}
	if s.ReduceLongMsg < 0 {
		return fmt.Errorf("machine: ReduceLongMsg %d, need >= 0 (0 = default)", s.ReduceLongMsg)
	}
	if err := s.Progress.Validate(); err != nil {
		return fmt.Errorf("machine: Progress %+v: %w", s.Progress, err)
	}
	return nil
}

// Run builds the job, runs body on every rank and returns the finished
// world; the error is a build failure or the engine's deadlock report.
func (s Spec) Run(body func(p *mpi.Proc)) (*mpi.World, error) {
	eng, w, err := s.Build()
	if err != nil {
		return nil, err
	}
	w.Launch(body)
	return w, eng.Run()
}
