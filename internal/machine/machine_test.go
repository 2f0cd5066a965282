package machine

import (
	"testing"

	"commoverlap/internal/mesh"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/simnet"
)

// TestBuildAppliesEverySpecField: each field of the spec lands where the
// hand-wired construction sites used to put it, and the zero overrides
// keep the world's calibrated defaults.
func TestBuildAppliesEverySpecField(t *testing.T) {
	reg := &metrics.Registry{}
	s := Spec{
		Config:        simnet.DefaultConfig(4),
		Topo:          "hier",
		Ranks:         8,
		Placement:     mesh.NaturalPlacement(8, 2),
		Progress:      progress.MustParse("dma"),
		AllreduceAlg:  mpi.AlgRing,
		ReduceLongMsg: 1 << 30,
		Metrics:       reg,
	}
	_, w, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.Net.Cfg.Topo.Kind != "hier" {
		t.Errorf("topology not applied: %+v", w.Net.Cfg.Topo)
	}
	if w.Net.Cfg.OffloadRate != simnet.DefaultOffloadRate {
		t.Errorf("offload rate %g, want %g", w.Net.Cfg.OffloadRate, simnet.DefaultOffloadRate)
	}
	if w.Size() != 8 || w.NodeOf(3) != 1 {
		t.Errorf("size %d, rank 3 on node %d", w.Size(), w.NodeOf(3))
	}
	if w.AllreduceAlg != mpi.AlgRing || w.ReduceLongMsg != 1<<30 || w.BcastLongMsg != mpi.DefaultBcastLongMsg {
		t.Errorf("algs/switch points: %q reduce=%d bcast=%d", w.AllreduceAlg, w.ReduceLongMsg, w.BcastLongMsg)
	}
	if w.Metrics != reg {
		t.Error("metrics sink not installed")
	}

	_, w, err = Spec{Config: simnet.DefaultConfig(2), Ranks: 4, Progress: progress.MustParse("rank1")}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.Progress != 1 || w.Net.Cfg.OffloadRate != 0 {
		t.Errorf("rank-mode progress: agents %d, offload %g", w.Progress, w.Net.Cfg.OffloadRate)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	for name, s := range map[string]Spec{
		"unknown topology": {Config: simnet.DefaultConfig(2), Topo: "mesh9", Ranks: 2},
		"no nodes":         {Ranks: 2},
		"no ranks":         {Config: simnet.DefaultConfig(2)},
		"short placement":  {Config: simnet.DefaultConfig(2), Ranks: 2, Placement: []int{0}},
	} {
		if _, _, err := s.Build(); err == nil {
			t.Errorf("%s: Build succeeded", name)
		}
	}
}

// TestRunReturnsFinishedWorld: Run launches the body on every rank and
// hands back the world after the engine drains.
func TestRunReturnsFinishedWorld(t *testing.T) {
	ran := 0
	w, err := Spec{Config: simnet.DefaultConfig(2), Ranks: 4}.Run(func(p *mpi.Proc) {
		p.World().Allreduce(mpi.Phantom(1<<20), mpi.OpSum)
		ran++
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 || w.Eng.Now() <= 0 || w.CheckClean() != nil {
		t.Errorf("ran %d ranks, clock %g, clean %v", ran, w.Eng.Now(), w.CheckClean())
	}
}
