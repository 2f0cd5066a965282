package mpi

import (
	"sync"
	"testing"
)

func TestSplitRowsAndCols(t *testing.T) {
	// 2x3 mesh: split world into rows (color = rank/3) and cols (rank%3).
	const p = 6
	runJob(t, p, 3, func(pr *Proc) {
		world := pr.World()
		row := world.Split(pr.Rank()/3, pr.Rank()%3)
		col := world.Split(pr.Rank()%3, pr.Rank()/3)
		if row.Size() != 3 || col.Size() != 2 {
			t.Errorf("rank %d: row size %d col size %d", pr.Rank(), row.Size(), col.Size())
		}
		if row.Rank() != pr.Rank()%3 || col.Rank() != pr.Rank()/3 {
			t.Errorf("rank %d: row rank %d col rank %d", pr.Rank(), row.Rank(), col.Rank())
		}
		// Row broadcast from row-rank 0 must stay within the row.
		buf := []float64{0}
		if row.Rank() == 0 {
			buf[0] = float64(pr.Rank()) // world ranks 0 and 3 are row roots
		}
		row.Bcast(0, F64(buf))
		wantRoot := float64((pr.Rank() / 3) * 3)
		if buf[0] != wantRoot {
			t.Errorf("rank %d row bcast got %g want %g", pr.Rank(), buf[0], wantRoot)
		}
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	const p = 4
	runJob(t, p, 2, func(pr *Proc) {
		// Reverse ordering via key.
		c := pr.World().Split(0, p-pr.Rank())
		if c.Rank() != p-1-pr.Rank() {
			t.Errorf("world rank %d got comm rank %d, want %d", pr.Rank(), c.Rank(), p-1-pr.Rank())
		}
		if c.group[0] != p-1 {
			t.Errorf("comm rank 0 is world %d, want %d", c.group[0], p-1)
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	const p = 4
	runJob(t, p, 2, func(pr *Proc) {
		var c *Comm
		if pr.Rank() < 2 {
			c = pr.World().Split(1, pr.Rank())
		} else {
			c = pr.World().Split(-1, 0)
		}
		if pr.Rank() < 2 {
			if c == nil || c.Size() != 2 {
				t.Errorf("rank %d: bad comm %+v", pr.Rank(), c)
			}
		} else if c != nil {
			t.Errorf("rank %d: expected nil comm for negative color", pr.Rank())
		}
	})
}

func TestDupIsolation(t *testing.T) {
	// A send on the dup must not match a recv on the original.
	const p = 2
	runJob(t, p, 2, func(pr *Proc) {
		world := pr.World()
		dup := world.Dup()
		if dup.Context() == world.Context() {
			t.Error("dup shares context with original")
		}
		if pr.Rank() == 0 {
			dup.Send(1, 5, F64([]float64{1}))
			world.Send(1, 5, F64([]float64{2}))
		} else {
			buf := make([]float64, 1)
			world.Recv(0, 5, F64(buf))
			if buf[0] != 2 {
				t.Errorf("world recv matched dup message: %g", buf[0])
			}
			dup.Recv(0, 5, F64(buf))
			if buf[0] != 1 {
				t.Errorf("dup recv got %g", buf[0])
			}
		}
	})
}

func TestDupNProducesDistinctContexts(t *testing.T) {
	runJob(t, 3, 3, func(pr *Proc) {
		comms := pr.World().DupN(4)
		seen := map[int]bool{}
		for _, c := range comms {
			if seen[c.Context()] {
				t.Errorf("duplicate context %d", c.Context())
			}
			seen[c.Context()] = true
			if c.Size() != 3 || c.Rank() != pr.Rank() {
				t.Errorf("dup shape wrong: size=%d rank=%d", c.Size(), c.Rank())
			}
		}
	})
}

func TestContextsAgreeAcrossRanks(t *testing.T) {
	const p = 4
	var mu sync.Mutex
	ctxs := make(map[int][]int) // rank -> contexts of its row comm and dup
	runJob(t, p, 2, func(pr *Proc) {
		row := pr.World().Split(pr.Rank()%2, pr.Rank())
		d := row.Dup()
		mu.Lock()
		ctxs[pr.Rank()] = []int{row.Context(), d.Context()}
		mu.Unlock()
	})
	// Ranks 0,2 share a color; ranks 1,3 share the other.
	if ctxs[0][0] != ctxs[2][0] || ctxs[1][0] != ctxs[3][0] {
		t.Errorf("split contexts disagree: %v", ctxs)
	}
	if ctxs[0][1] != ctxs[2][1] || ctxs[1][1] != ctxs[3][1] {
		t.Errorf("dup contexts disagree: %v", ctxs)
	}
	if ctxs[0][0] == ctxs[1][0] {
		t.Errorf("different colors got same context: %v", ctxs)
	}
}

func TestNestedSplit(t *testing.T) {
	// Split a 8-rank world into a 2x2x2 mesh's three communicator families.
	const p = 8
	runJob(t, p, 4, func(pr *Proc) {
		world := pr.World()
		i, j, k := pr.Rank()/4, (pr.Rank()/2)%2, pr.Rank()%2
		rowc := world.Split(i*2+k, j) // fix (i,k), vary j
		colc := world.Split(j*2+k, i)
		grdc := world.Split(i*2+j, k)
		for _, c := range []*Comm{rowc, colc, grdc} {
			if c.Size() != 2 {
				t.Fatalf("rank %d comm size %d", pr.Rank(), c.Size())
			}
		}
		// An allreduce on grdc sums over k for fixed (i,j).
		buf := []float64{float64(k + 1)}
		grdc.Allreduce(F64(buf), OpSum)
		if buf[0] != 3 {
			t.Errorf("rank %d grd allreduce = %g want 3", pr.Rank(), buf[0])
		}
	})
}
