package mpi

// RunActive implements the paper's per-kernel PPN mechanism (Section
// III-B): a kernel may want fewer processes per node than the rest of the
// application, so the surplus ranks are parked while the active ranks work.
//
// Inactive ranks post an Ibarrier immediately and poll it with Test +
// usleep every poll seconds (the paper uses 10 ms); active ranks run body
// and then post the Ibarrier, which releases everyone into the next phase.
// All ranks of comm must call RunActive.
//
// Under the progress-rank engine (World.Progress > 0) parked ranks complete
// eagerly instead: the node's progress agents are already advancing every
// sibling pipeline, so the barrier's completion wakes a parked rank at its
// fire time rather than at the next poll tick. Park/wake accounting is
// unchanged, so CheckClean's park/wake check stays mode-independent.
func RunActive(p *Proc, comm *Comm, active bool, poll float64, body func()) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	if !active {
		p.w.parks++
		p.w.Metrics.Inc("mpi.parks", "")
		if p.w.Progress > 0 {
			comm.Ibarrier().Wait()
		} else {
			p.PollWait(comm.Ibarrier(), poll)
		}
		p.w.wakes++
		p.w.Metrics.Inc("mpi.wakes", "")
		return
	}
	body()
	comm.Ibarrier().Wait()
}
