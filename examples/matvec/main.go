// Matvec reproduces the paper's explanatory example (Section III-A,
// Algorithms 1 and 2): distributed y = A*x on a p x p process mesh, first
// with a blocking row-reduce + column-broadcast, then with the reductions
// and broadcasts pipelined segment by segment over duplicated
// communicators. It verifies both against the serial product and reports
// virtual-time performance at a communication-bound size.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
)

func main() {
	q := flag.Int("p", 4, "mesh edge (p x p ranks)")
	n := flag.Int("n", 64, "matrix dimension for the correctness pass")
	big := flag.Int("N", 200000, "vector length for the phantom timing pass")
	ndup := flag.Int("ndup", 4, "N_DUP segments")
	flag.Parse()

	// Correctness pass with real arithmetic.
	rng := rand.New(rand.NewSource(7))
	a := mat.Rand(*n, *n, rng)
	x := make([]float64, *n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, *n)
	mat.MatVec(a, x, want)
	bd := mat.BlockDim{N: *n, P: *q}

	for _, overlapped := range []bool{false, true} {
		got := runReal(*q, *n, *ndup, a, x, overlapped)
		worst := 0.0
		for i := range want {
			worst = math.Max(worst, math.Abs(got[i]-want[i]))
		}
		fmt.Printf("correctness (overlapped=%v): max |y - y_ref| = %.2e over %d elements\n",
			overlapped, worst, bd.N)
	}

	// Timing pass with phantom payloads at a large dimension.
	plain := runPhantom(*q, *big, *ndup, false)
	over := runPhantom(*q, *big, *ndup, true)
	fmt.Printf("\nphantom y = A*x, N=%d on a %dx%d mesh (virtual time):\n", *big, *q, *q)
	fmt.Printf("  Algorithm 1 (blocking):          %7.3f ms\n", plain*1e3)
	fmt.Printf("  Algorithm 2 (N_DUP=%d pipelined): %7.3f ms  (%.0f%% faster)\n",
		*ndup, over*1e3, (plain/over-1)*100)
}

func runReal(q, n, ndup int, a *mat.Matrix, x []float64, overlapped bool) []float64 {
	dims := mesh.Dims{Q: q, C: 1}
	bd := mat.BlockDim{N: n, P: q}
	var mu sync.Mutex
	got := make([]float64, n)
	m := machine.Spec{Config: simnet.DefaultConfig(min(q*q, 8)), Ranks: dims.Size()}
	_, err := m.Run(func(pr *mpi.Proc) {
		i, j, _ := dims.Coords(pr.Rank())
		blk := mat.BlockView(a, q, i, j).Clone()
		mv, err := core.NewMatVec(pr, q, core.Config{N: n, NDup: ndup, Real: true}, blk)
		if err != nil {
			panic(err)
		}
		xj := make([]float64, bd.Count(j))
		copy(xj, x[bd.Offset(j):bd.Offset(j)+bd.Count(j)])
		var y []float64
		if overlapped {
			y = mv.Overlapped(xj)
		} else {
			y = mv.Plain(xj)
		}
		if i == 0 {
			mu.Lock()
			copy(got[bd.Offset(j):bd.Offset(j)+bd.Count(j)], y)
			mu.Unlock()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return got
}

func runPhantom(q, n, ndup int, overlapped bool) float64 {
	var worst float64
	m := machine.Spec{Config: simnet.DefaultConfig(min(q*q, 16)), Ranks: q * q}
	_, err := m.Run(func(pr *mpi.Proc) {
		mv, err := core.NewMatVec(pr, q, core.Config{N: n, NDup: ndup}, nil)
		if err != nil {
			panic(err)
		}
		mv.M.World.Barrier()
		t0 := pr.Now()
		if overlapped {
			mv.Overlapped(nil)
		} else {
			mv.Plain(nil)
		}
		mv.M.World.Barrier()
		if dt := pr.Now() - t0; dt > worst {
			worst = dt
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return worst
}
