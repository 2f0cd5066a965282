package mpi

import (
	"fmt"
	"sort"

	"commoverlap/internal/sim"
)

// Comm is a communicator handle held by one rank. Handles on different
// ranks that share the same context id denote the same communicator.
// Communicator creation (Dup/Split) is collective and must be called by all
// members in the same order, as in MPI. Creation itself is treated as
// untimed setup: the paper's kernels duplicate their communicators once at
// initialization, outside the measured region.
type Comm struct {
	p     *Proc
	ctx   int
	rank  int
	group []int // world ranks indexed by comm rank

	collSeq  int // per-rank count of collective calls on this comm
	splitSeq int // per-rank count of Split/Dup calls on this comm

	shiftFactors []int // lazy cache of factorize(Size()) for allreduceShift
}

// Rank returns the calling rank's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Context returns the communicator's context id (useful for debugging).
func (c *Comm) Context() int { return c.ctx }

type splitKey struct {
	ctx, epoch int
}

type splitEntry struct {
	color, key int
	present    bool
}

type splitSlot struct {
	arrived int
	entries []splitEntry
	gate    *sim.Gate
	result  []*commSpec // indexed by old comm rank; nil for UNDEFINED color
}

type commSpec struct {
	ctx   int
	group []int
	rank  int
}

// Split partitions the communicator by color; ranks with equal color form a
// new communicator ordered by (key, old rank). A negative color returns nil
// (MPI_UNDEFINED). All members must call Split.
func (c *Comm) Split(color, key int) *Comm {
	w := c.p.w
	k := splitKey{ctx: c.ctx, epoch: c.splitSeq}
	c.splitSeq++
	slot, ok := w.splitSlots[k]
	if !ok {
		slot = &splitSlot{entries: make([]splitEntry, len(c.group)), gate: w.Eng.NewGate()}
		w.splitSlots[k] = slot
	}
	if slot.entries[c.rank].present {
		panic(fmt.Sprintf("mpi: rank %d called Split twice for the same epoch", c.rank))
	}
	slot.entries[c.rank] = splitEntry{color: color, key: key, present: true}
	slot.arrived++
	if slot.arrived == len(c.group) {
		slot.result = computeSplit(w, c.group, slot.entries)
		delete(w.splitSlots, k)
		slot.gate.Fire()
	} else {
		c.p.sp.Wait(slot.gate)
	}
	spec := slot.result[c.rank]
	if spec == nil {
		return nil
	}
	return &Comm{p: c.p, ctx: spec.ctx, rank: spec.rank, group: spec.group}
}

// computeSplit runs once, on the last rank to arrive, and assigns context
// ids deterministically (ascending color order).
func computeSplit(w *World, oldGroup []int, entries []splitEntry) []*commSpec {
	type member struct {
		color, key, oldRank int
	}
	byColor := make(map[int][]member)
	var colors []int
	for r, e := range entries {
		if e.color < 0 {
			continue
		}
		if _, seen := byColor[e.color]; !seen {
			colors = append(colors, e.color)
		}
		byColor[e.color] = append(byColor[e.color], member{e.color, e.key, r})
	}
	sort.Ints(colors)
	result := make([]*commSpec, len(entries))
	for _, col := range colors {
		ms := byColor[col]
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].key != ms[j].key {
				return ms[i].key < ms[j].key
			}
			return ms[i].oldRank < ms[j].oldRank
		})
		ctx := w.ctxCounter
		w.ctxCounter++
		group := make([]int, len(ms))
		for newRank, m := range ms {
			group[newRank] = oldGroup[m.oldRank]
		}
		for newRank, m := range ms {
			result[m.oldRank] = &commSpec{ctx: ctx, group: group, rank: newRank}
		}
	}
	return result
}

// Dup returns a duplicate communicator: same group, fresh context, so
// operations on the duplicate never match operations on the original. This
// is the primitive behind the paper's N_DUP communicator copies.
func (c *Comm) Dup() *Comm {
	return c.Split(0, c.rank)
}

// DupN returns n duplicates of the communicator (convenience for building
// the N_DUP pipeline of the optimized kernels).
func (c *Comm) DupN(n int) []*Comm {
	out := make([]*Comm, n)
	for i := range out {
		out[i] = c.Dup()
	}
	return out
}
