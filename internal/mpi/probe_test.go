package mpi

import "testing"

func TestIprobeSeesUnreceivedMessage(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 7, F64([]float64{1, 2}))
		} else {
			if _, ok := c.Iprobe(0, 7); ok {
				t.Error("Iprobe matched before arrival")
			}
			p.Sleep(1e-3) // let the eager message land
			st, ok := c.Iprobe(0, 7)
			if !ok || st.Source != 0 || st.Tag != 7 || st.Bytes != 16 {
				t.Errorf("Iprobe: ok=%v st=%+v", ok, st)
			}
			// Probing does not consume: the receive still works.
			buf := make([]float64, 2)
			c.Recv(0, 7, F64(buf))
			if buf[1] != 2 {
				t.Errorf("payload %v", buf)
			}
			if _, ok := c.Iprobe(0, 7); ok {
				t.Error("Iprobe matched after the message was received")
			}
		}
	})
}

func TestProbeBlocksUntilArrival(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			p.Sleep(5e-3)
			c.Send(1, 1, F64([]float64{9}))
		} else {
			st := c.Probe(AnySource, AnyTag)
			if p.Now() < 5e-3 {
				t.Errorf("Probe returned at %g before the send at 5ms", p.Now())
			}
			if st.Source != 0 || st.Tag != 1 {
				t.Errorf("status %+v", st)
			}
			c.Recv(st.Source, st.Tag, F64(make([]float64, 1)))
		}
	})
}

func TestWaitanyReturnsFirstCompletion(t *testing.T) {
	runJob(t, 3, 3, func(p *Proc) {
		c := p.World()
		switch p.Rank() {
		case 0:
			p.Sleep(10e-3)
			c.Send(2, 0, F64([]float64{0}))
		case 1:
			p.Sleep(2e-3)
			c.Send(2, 1, F64([]float64{1}))
		case 2:
			reqs := []*Request{
				c.Irecv(0, 0, F64(make([]float64, 1))),
				c.Irecv(1, 1, F64(make([]float64, 1))),
			}
			idx := p.sp.WaitAny(reqs[0].done, reqs[1].done)
			if idx != 1 {
				t.Errorf("WaitAny returned %d, want 1 (the earlier sender)", idx)
			}
			Waitall(reqs...)
		}
	})
	// Empty set.
	runJob(t, 1, 1, func(p *Proc) {
		if p.sp.WaitAny() != -1 {
			t.Error("WaitAny() != -1")
		}
	})
}
