package sim

import "math/rand"

// TieBreak chooses which event to run when several events are scheduled at
// exactly the same virtual time. The engine hands it the number of tied
// candidates (ordered by schedule sequence, i.e. FIFO order) and runs the
// one whose index it returns; the rest keep their relative order.
//
// Any choice is a legal schedule: simultaneous events have no defined order
// in the model, so a correct program must produce the same results under
// every policy. The schedule-exploration checker (internal/check) exploits
// this to hunt for order-dependent bugs; production runs leave the engine's
// default (FIFO, equivalent to no policy) in place.
type TieBreak interface {
	// Name identifies the policy in reports and repro commands.
	Name() string
	// Choose returns the index in [0, n) of the tied event to run next.
	// It is called once per pop with n >= 2 tied candidates.
	Choose(n int) int
}

// LIFO returns the adversarial policy: among tied events, run the one
// scheduled last. It maximally inverts same-instant ordering, which flushes
// out code that silently relies on schedule order.
func LIFO() TieBreak { return lifoTB{} }

type lifoTB struct{}

func (lifoTB) Name() string     { return "lifo" }
func (lifoTB) Choose(n int) int { return n - 1 }

// Seeded returns a deterministic pseudo-random policy: among tied events,
// run a uniformly chosen one. Two engines driven by Seeded policies with the
// same seed make identical choices, so any schedule found by exploration can
// be replayed exactly from its seed.
func Seeded(seed int64) TieBreak {
	return &seededTB{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

type seededTB struct {
	seed int64
	rng  *rand.Rand
}

func (s *seededTB) Name() string     { return "random" }
func (s *seededTB) Seed() int64      { return s.seed }
func (s *seededTB) Choose(n int) int { return s.rng.Intn(n) }
