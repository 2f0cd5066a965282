package progress

import (
	"testing"

	"commoverlap/internal/simnet"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		out  string // canonical label (defaults collapse)
	}{
		{"", Spec{}, ""},
		{"off", Spec{}, ""},
		{"rank1", Spec{Mode: Ranks, Ranks: 1}, "rank1"},
		{"rank3", Spec{Mode: Ranks, Ranks: 3}, "rank3"},
		{"dma", Spec{Mode: Offload}, "dma"},
		{"dma@2.5e+10", Spec{Mode: Offload, Rate: 2.5e10}, "dma@2.5e+10"},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got.String(), c.out)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("Parse(%q).Validate(): %v", c.in, err)
		}
		// The canonical label must parse back to the same spec.
		back, err := Parse(got.String())
		if err != nil || back != got {
			t.Errorf("Parse(String(%+v)) = %+v, %v", got, back, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{"rank0", "rank-1", "rankx", "dma@", "dma@0", "dma@-5", "bogus", "ppn2"} {
		if sp, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", in, sp)
		}
	}
}

func TestApplyConfig(t *testing.T) {
	cfg := simnet.DefaultConfig(4)
	MustParse("rank2").ApplyConfig(&cfg)
	if cfg.OffloadRate != 0 {
		t.Errorf("rank mode touched OffloadRate: %g", cfg.OffloadRate)
	}
	MustParse("dma").ApplyConfig(&cfg)
	if cfg.OffloadRate != simnet.DefaultOffloadRate {
		t.Errorf("dma default rate = %g, want %g", cfg.OffloadRate, simnet.DefaultOffloadRate)
	}
	cfg.OffloadRate = 0
	MustParse("dma@2e10").ApplyConfig(&cfg)
	if cfg.OffloadRate != 2e10 {
		t.Errorf("dma@2e10 rate = %g", cfg.OffloadRate)
	}
}

func TestLanesNeeded(t *testing.T) {
	if n := MustParse("rank2").LanesNeeded(); n != 2 {
		t.Errorf("rank2 lanes = %d, want 2", n)
	}
	if n := MustParse("dma").LanesNeeded(); n != 0 {
		t.Errorf("dma lanes = %d, want 0", n)
	}
	if n := MustParse("").LanesNeeded(); n != 0 {
		t.Errorf("off lanes = %d, want 0", n)
	}
}
