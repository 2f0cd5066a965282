package machine

import (
	"strings"
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

// TestBuildRejectsBadSpecs: every malformed field fails Build with an
// error naming the field and its value, and none panics — neither inside
// Build nor later on a rank goroutine.
func TestBuildRejectsBadSpecs(t *testing.T) {
	two := simnet.DefaultConfig(2)
	for _, tc := range []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"unknown topology", Spec{Config: two, Topo: "mesh9", Ranks: 2}, "mesh9"},
		{"no nodes", Spec{Ranks: 2}, "Nodes = 0"},
		{"no ranks", Spec{Config: two}, "world size 0"},
		{"short placement", Spec{Config: two, Ranks: 2, Placement: []int{0}}, "1 entries for 2 ranks"},
		{"placement past last node", Spec{Config: two, Ranks: 2, Placement: []int{0, 5}}, "placement[1] = node 5"},
		{"negative placement", Spec{Config: two, Ranks: 2, Placement: []int{0, -1}}, "placement[1] = node -1"},
		{"unknown bcast alg", Spec{Config: two, Ranks: 2, BcastAlg: "bogus"}, `BcastAlg "bogus"`},
		{"unknown reduce alg", Spec{Config: two, Ranks: 2, ReduceAlg: "ring"}, `ReduceAlg "ring"`},
		{"unknown allreduce alg", Spec{Config: two, Ranks: 2, AllreduceAlg: "bogus"}, `AllreduceAlg "bogus"`},
		{"negative bcast switch point", Spec{Config: two, Ranks: 2, BcastLongMsg: -5}, "BcastLongMsg -5"},
		{"negative reduce switch point", Spec{Config: two, Ranks: 2, ReduceLongMsg: -5}, "ReduceLongMsg -5"},
		{"zero progress ranks", Spec{Config: two, Ranks: 2, Progress: progress.Spec{Mode: progress.Ranks}}, "0 progress ranks"},
		{"negative offload rate", Spec{Config: two, Ranks: 2, Progress: progress.Spec{Mode: progress.Offload, Rate: -1}}, "offload rate -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			w, err := tc.spec.Run(func(p *mpi.Proc) {
				p.World().Bcast(0, mpi.Phantom(1<<20))
				p.World().Allreduce(mpi.Phantom(1<<20), mpi.OpSum)
			})
			if err == nil {
				t.Fatalf("Run succeeded (world %v)", w != nil)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
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
