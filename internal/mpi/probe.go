package mpi

import "fmt"

// Probe rounds out the point-to-point API. Progress in the simulation is
// autonomous, so Iprobe is a pure query of the matching queues, and Probe
// parks the caller until something matching arrives.

// Iprobe reports whether a message matching (src, tag) — either of which
// may be the Any* wildcard — is available without receiving it. On a match
// it returns the message's status.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	probe := &postedRecv{ctx: c.ctx, src: src, tag: tag}
	for _, m := range c.p.st.unexpected {
		if m.matches(probe) {
			return Status{Source: m.src, Tag: m.tag, Bytes: m.bytes}, true
		}
	}
	return Status{}, false
}

// Probe blocks until a matching message is available, polling the matching
// queue each time the rank's clock can advance. It charges the same
// per-test CPU cost as PollWait's MPI_Test loop, with a short adaptive
// back-off so the virtual-time cost of waiting is bounded.
//
// Like PollWait, a probe for a message that never arrives would spin
// forever in virtual time — the poll loop keeps generating events, so the
// engine's deadlock detector never triggers. World.MaxPollTime bounds the
// spin; exceeding it panics with the rank and the (src, tag) pattern that
// never matched.
func (c *Comm) Probe(src, tag int) Status {
	deadline := c.p.sp.Now() + c.p.w.MaxPollTime
	backoff := 1e-6
	for {
		if st, ok := c.Iprobe(src, tag); ok {
			return st
		}
		c.p.w.Metrics.Inc("mpi.probe.spins", "")
		c.p.w.Net.ChargeCPU(c.p.sp, c.p.st.ep, testOverhead)
		if c.p.w.MaxPollTime > 0 && c.p.sp.Now() >= deadline {
			panic(fmt.Sprintf(
				"mpi: rank %d probed (src %d, tag %d) on ctx %d for %g virtual seconds without a match — no matching message is coming",
				c.p.rank, src, tag, c.ctx, c.p.w.MaxPollTime))
		}
		c.p.sp.Sleep(backoff)
		if backoff < 64e-6 {
			backoff *= 2
		}
	}
}
