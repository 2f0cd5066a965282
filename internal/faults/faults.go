// Package faults is a deterministic, seed-replayable perturbation layer for
// the simulated cluster. It models the machine noise that the paper's
// overlap claim must survive in practice:
//
//   - per-node CPU stragglers: a deterministic subset of nodes whose
//     process lanes (CPU and NIC) run slower by a fixed factor, with
//     periodic pause/resume windows during which work stalls entirely —
//     the classic OS-jitter / co-runner interference shape;
//   - per-link degradation: a subset of node links whose wires carry each
//     byte slower, plus uniform per-chunk latency jitter on every link;
//   - OS-noise preemptions: each CPU/NIC reservation is independently
//     preempted with a small probability, adding a random stall;
//   - transient chunk loss: a chunk's transmission attempt drops on the
//     wire with a small probability and is repaired by the sender after a
//     timeout that backs off exponentially per attempt (the rendezvous
//     bulk path leans on this hardest, since it moves the most chunks).
//
// Everything is driven by a seeded PRNG partitioned into independent
// streams (selection, CPU noise, link noise, loss), and the simulation
// engine serializes all draws, so identical seeds reproduce bit-identical
// virtual-time traces — the property the determinism tests in
// internal/check pin down byte-for-byte. The injector also keeps a log of
// every injected fault (virtual time, kind, location, added delay),
// exportable as Chrome trace instants next to the span and message traces.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

// Config holds the perturbation model parameters. The zero value is a
// clean machine (every mechanism disabled).
type Config struct {
	// Seed drives every random decision. Two injectors with equal configs
	// installed into identical worlds perturb identically.
	Seed int64

	// CPU stragglers. StragglerFrac of the nodes (rounded to the nearest
	// count, chosen by a seeded permutation) run their process lanes
	// slower by StragglerFactor (>= 1).
	StragglerFrac   float64
	StragglerFactor float64

	// Pause/resume windows on straggler nodes: every PausePeriod seconds
	// a pause of PauseDur seconds begins (per-node phase offsets are drawn
	// at install time); a lane reservation starting inside a window stalls
	// until the window ends. Zero PausePeriod or PauseDur disables pauses.
	PausePeriod float64
	PauseDur    float64

	// Link degradation. DegradedLinkFrac of the nodes (again a seeded
	// permutation) have both wire directions slowed by DegradedLinkFactor
	// (>= 1); LatencyJitter adds uniform [0, LatencyJitter) seconds to
	// every chunk's leading edge on every link.
	DegradedLinkFrac   float64
	DegradedLinkFactor float64
	LatencyJitter      float64

	// OS-noise preemptions: lane reservations are preempted at an expected
	// PreemptRate events per busy second (a Poisson process, so a schedule's
	// exposure scales with its busy time, not its reservation count), each
	// preemption stretching the reservation by uniform (0, PreemptMax]
	// seconds.
	PreemptRate float64
	PreemptMax  float64

	// Transient loss: each chunk transmission attempt is lost with
	// probability ChunkLossProb. The sender retransmits after
	// RetransTimeout * 2^attempt seconds. After MaxRetries lost attempts
	// of one chunk the link is considered recovered and the next attempt
	// succeeds, so payloads are never silently dropped. Zeros default to
	// 50 us and 8 retries when loss is enabled.
	ChunkLossProb  float64
	RetransTimeout float64
	MaxRetries     int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.StragglerFrac < 0 || c.StragglerFrac > 1:
		return fmt.Errorf("faults: StragglerFrac = %g, need [0,1]", c.StragglerFrac)
	case c.DegradedLinkFrac < 0 || c.DegradedLinkFrac > 1:
		return fmt.Errorf("faults: DegradedLinkFrac = %g, need [0,1]", c.DegradedLinkFrac)
	case c.StragglerFrac > 0 && c.StragglerFactor < 1:
		return fmt.Errorf("faults: StragglerFactor = %g, need >= 1", c.StragglerFactor)
	case c.DegradedLinkFrac > 0 && c.DegradedLinkFactor < 1:
		return fmt.Errorf("faults: DegradedLinkFactor = %g, need >= 1", c.DegradedLinkFactor)
	case c.ChunkLossProb < 0 || c.ChunkLossProb >= 1:
		return fmt.Errorf("faults: ChunkLossProb = %g, need [0,1)", c.ChunkLossProb)
	case c.PreemptRate < 0:
		return fmt.Errorf("faults: PreemptRate = %g, need >= 0", c.PreemptRate)
	case c.PreemptRate > 0 && c.PreemptMax <= 0:
		return fmt.Errorf("faults: PreemptRate set with PreemptMax = %g", c.PreemptMax)
	case c.PausePeriod < 0 || c.PauseDur < 0 || c.LatencyJitter < 0 || c.RetransTimeout < 0:
		return fmt.Errorf("faults: durations must be >= 0")
	case c.PauseDur > 0 && c.PausePeriod > 0 && c.PauseDur >= c.PausePeriod:
		return fmt.Errorf("faults: PauseDur %g >= PausePeriod %g leaves no resume window", c.PauseDur, c.PausePeriod)
	case c.MaxRetries < 0:
		return fmt.Errorf("faults: MaxRetries = %d, need >= 0", c.MaxRetries)
	}
	return nil
}

// Event is one injected fault, for the deterministic fault log.
type Event struct {
	T    float64 // virtual time the fault took effect
	Kind string  // "preempt", "pause", "loss"
	Node int     // node the fault hit (the source node for losses)
	Dur  float64 // stall added (the backoff timeout for losses)
}

// Injector applies a Config to a simulated world. Create one with New,
// wire it in with Install (once, before Launch), and run the job normally.
// Implements simnet.FaultModel.
type Injector struct {
	cfg Config
	w   *mpi.World

	cpuRand  *rand.Rand // preemption draws
	linkRand *rand.Rand // latency-jitter draws
	lossRand *rand.Rand // chunk-loss draws

	straggler   []bool    // per node
	degraded    []bool    // per node
	pausePhase  []float64 // per node, offset of the pause schedule
	log         []Event
	retransMax  int
	retransBase float64
}

// New validates cfg and returns an injector ready to Install.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		cfg:         cfg,
		cpuRand:     rand.New(rand.NewSource(cfg.Seed + 1)),
		linkRand:    rand.New(rand.NewSource(cfg.Seed + 2)),
		lossRand:    rand.New(rand.NewSource(cfg.Seed + 3)),
		retransMax:  cfg.MaxRetries,
		retransBase: cfg.RetransTimeout,
	}
	if cfg.ChunkLossProb > 0 {
		if inj.retransBase == 0 {
			inj.retransBase = 50e-6
		}
		if inj.retransMax == 0 {
			inj.retransMax = 8
		}
	}
	return inj, nil
}

// Install wires the injector into a world: straggler and preemption hooks
// onto every rank's CPU and NIC lanes, degradation hooks onto the chosen
// node wires, and the injector itself as the fabric's chunk-level fault
// model (loss and jitter). Call once, after NewWorld and before Launch.
// Which nodes straggle and which links degrade is decided here by seeded
// permutations over the node indices, so the choice replays with the seed.
func (inj *Injector) Install(w *mpi.World) {
	if inj.w != nil {
		panic("faults: injector installed twice")
	}
	inj.w = w
	nodes := w.Net.Cfg.Nodes
	sel := rand.New(rand.NewSource(inj.cfg.Seed))
	inj.straggler = pick(sel, nodes, inj.cfg.StragglerFrac)
	inj.degraded = pick(sel, nodes, inj.cfg.DegradedLinkFrac)
	inj.pausePhase = make([]float64, nodes)
	for i := range inj.pausePhase {
		if inj.cfg.PausePeriod > 0 {
			inj.pausePhase[i] = sel.Float64() * inj.cfg.PausePeriod
		}
	}
	w.Net.Faults = inj
	w.Net.EachWire(func(node int, egress, ingress *sim.Resource) {
		if inj.degraded[node] {
			f := inj.cfg.DegradedLinkFactor
			egress.Perturb = func(start, dur float64) float64 { return dur * f }
			ingress.Perturb = func(start, dur float64) float64 { return dur * f }
		}
	})
	w.EachEndpoint(func(rank int, ep *simnet.Endpoint) {
		ep.CPU.Perturb = inj.lanePerturb(ep.Node)
		ep.NIC.Perturb = inj.lanePerturb(ep.Node)
	})
}

// pick returns a membership mask with round(frac*n) true entries chosen by
// a seeded permutation — a deterministic count, unlike per-node coin flips,
// so experiments at equal fractions always compare equal straggler counts.
func pick(r *rand.Rand, n int, frac float64) []bool {
	mask := make([]bool, n)
	k := int(frac*float64(n) + 0.5)
	if k > n {
		k = n
	}
	for _, idx := range r.Perm(n)[:k] {
		mask[idx] = true
	}
	return mask
}

// lanePerturb builds the CPU/NIC perturbation for one node: straggler slow
// factor, pause windows, and preemptions, in that order. Both the pause and
// preemption stalls are proportional to the reservation's duration, not to
// the reservation count — a schedule that books the same busy time in many
// small reservations (the N_DUP bands) suffers the same expected noise as
// one booking it in a few large ones, exactly as a real frozen lane or a
// Poisson preemption process would behave.
func (inj *Injector) lanePerturb(node int) func(start, dur float64) float64 {
	return func(start, dur float64) float64 {
		if dur <= 0 {
			return dur
		}
		if inj.straggler[node] {
			if f := inj.cfg.StragglerFactor; f > 1 {
				dur *= f
			}
			if p, d := inj.cfg.PausePeriod, inj.cfg.PauseDur; p > 0 && d > 0 {
				if stall := pauseStall(math.Mod(start+inj.pausePhase[node], p), dur, p, d); stall > 0 {
					dur += stall
					inj.record("pause", node, stall)
					inj.metrics().Add("faults.pause.time", "", stall)
				}
			}
		}
		// Preemption count over the reservation is Poisson with rate
		// PreemptRate; a single Bernoulli draw at the expected count (capped)
		// keeps one PRNG draw per reservation while staying duration-fair.
		if rate := inj.cfg.PreemptRate; rate > 0 {
			p := 1 - math.Exp(-dur*rate)
			if inj.cpuRand.Float64() < p {
				stall := inj.cpuRand.Float64() * inj.cfg.PreemptMax
				dur += stall
				inj.record("preempt", node, stall)
				inj.metrics().Inc("faults.preempts", "")
				inj.metrics().Add("faults.preempt.time", "", stall)
			}
		}
		return dur
	}
}

// pauseStall computes how much a lane reservation stretches when the lane
// freezes for the first pauseDur of every period: the remainder of an
// in-progress window at the start, plus one full window per period boundary
// the (stretched) service crosses. phase is the start's offset within the
// period.
func pauseStall(phase, dur, period, pauseDur float64) float64 {
	stall := 0.0
	if phase < pauseDur {
		stall = pauseDur - phase // finish the window already in progress
		phase = pauseDur
	}
	// Work remaining after the current window runs in slices of usable time
	// (period minus window), paying one full window per boundary crossed.
	if rem := dur - (period - phase); rem > 0 {
		stall += math.Ceil(rem/(period-pauseDur)) * pauseDur
	}
	return stall
}

// ChunkDelay implements simnet.FaultModel: uniform per-chunk latency jitter.
func (inj *Injector) ChunkDelay(src, dst int) float64 {
	if inj.cfg.LatencyJitter <= 0 {
		return 0
	}
	return inj.linkRand.Float64() * inj.cfg.LatencyJitter
}

// ChunkFate implements simnet.FaultModel: transient loss with exponential
// backoff. After MaxRetries lost attempts of one chunk the link is treated
// as recovered — the attempt succeeds — so no payload is ever dropped.
func (inj *Injector) ChunkFate(src, dst, attempt int) (lost bool, timeout float64) {
	if inj.cfg.ChunkLossProb <= 0 || attempt >= inj.retransMax {
		return false, 0
	}
	if inj.lossRand.Float64() >= inj.cfg.ChunkLossProb {
		return false, 0
	}
	timeout = inj.retransBase * math.Pow(2, float64(attempt))
	inj.record("loss", src, timeout)
	inj.metrics().Inc("faults.losses", "")
	return true, timeout
}

// record appends one fault to the deterministic log.
func (inj *Injector) record(kind string, node int, dur float64) {
	inj.log = append(inj.log, Event{T: inj.now(), Kind: kind, Node: node, Dur: dur})
}

// now reads the installed world's virtual clock; zero before Install.
func (inj *Injector) now() float64 {
	if inj.w != nil && inj.w.Eng != nil {
		return inj.w.Eng.Now()
	}
	return 0
}

// metrics returns the installed world's registry; a nil registry (including
// before Install) accepts and drops everything.
func (inj *Injector) metrics() *metrics.Registry {
	if inj.w == nil {
		return nil
	}
	return inj.w.Metrics
}

// Events returns the fault log in injection order. Identical seeds and
// schedules reproduce it exactly.
func (inj *Injector) Events() []Event { return inj.log }

// ChromeEvents renders the fault log as instant trace events (one per
// injected fault, on the affected node's track), loadable next to the span
// and message exports in Perfetto.
func (inj *Injector) ChromeEvents() []trace.ChromeEvent {
	out := make([]trace.ChromeEvent, 0, len(inj.log))
	for _, e := range inj.log {
		out = append(out, trace.ChromeEvent{
			Name: "fault:" + e.Kind, Cat: "fault", Ph: "i",
			Ts: e.T * 1e6, Pid: e.Node, Tid: e.Node, Scope: "t",
			Args: map[string]any{"stall_us": e.Dur * 1e6},
		})
	}
	return out
}
