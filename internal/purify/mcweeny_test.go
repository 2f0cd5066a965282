package purify

import (
	"fmt"
	"math"
	"testing"

	"commoverlap/internal/mat"
)

// McWeeny purification is the iteration the paper's introduction quotes:
//
//	D_{k+1} = 3 D_k² - 2 D_k³
//
// It drives eigenvalues monotonically to {0, 1} but — unlike canonical
// purification — does not conserve the trace, so the initial guess must
// already have the correct occupation: eigenvalues of D0 below 1/2 must be
// exactly the N-Ne unoccupied states. That requires placing the chemical
// potential mu between the Ne-th and (Ne+1)-th eigenvalues, which this
// implementation finds by bisection on the trace of the linearized guess
// (each probe is O(N), no eigensolve). Both purification flavors need D²
// and D³ each step, i.e. the same SymmSquareCube kernel.

// mcweenyGuess builds D0 = 1/2 I - beta (F - mu I) with beta scaled so the
// spectrum stays in [0, 1], for a trial chemical potential mu.
func mcweenyGuess(f *mat.Matrix, mu float64) *mat.Matrix {
	hmin, hmax := f.Gershgorin()
	spread := math.Max(hmax-mu, mu-hmin)
	beta := 0.5 / math.Max(spread, 1e-300)
	d := f.Clone()
	d.Scale(-beta)
	d.AddIdentity(0.5 + beta*mu)
	return d
}

// McWeenySerial purifies F with the McWeeny iteration, locating the
// chemical potential by bisection so that the converged projector has
// trace Ne. It is a serial reference; the distributed kernels could drive
// it identically to the canonical variant.
func McWeenySerial(f *mat.Matrix, opt Options) (*mat.Matrix, Stats, error) {
	opt, err := opt.norm(f.Rows)
	if err != nil {
		return nil, Stats{}, err
	}
	n := f.Rows
	hmin, hmax := f.Gershgorin()

	// Bisection on mu: the McWeeny fixed point from guess(mu) has trace
	// equal to the number of eigenvalues of F below mu. Each probe runs
	// the iteration to (loose) convergence; the trace is integral, so a
	// handful of probes suffice.
	lo, hi := hmin, hmax
	var best *mat.Matrix
	var st Stats
	for probe := 0; probe < 60; probe++ {
		mu := (lo + hi) / 2
		d, iters := mcweenyIterate(mcweenyGuess(f, mu), opt.Tol, opt.MaxIter)
		st.Iters += iters
		tr := d.Trace()
		occ := int(math.Round(tr))
		switch {
		case occ == opt.Ne:
			best = d
		case occ < opt.Ne:
			lo = mu
		default:
			hi = mu
		}
		if best != nil {
			break
		}
		if hi-lo < 1e-14*math.Max(1, math.Abs(hmax)) {
			return nil, st, fmt.Errorf("purify: bisection failed to bracket Ne=%d (trace %g)", opt.Ne, tr)
		}
	}
	if best == nil {
		return nil, st, fmt.Errorf("purify: no chemical potential found for Ne=%d", opt.Ne)
	}
	d2 := mat.New(n, n)
	mat.Gemm(1, best, best, 0, d2)
	st.IdemErr = (best.Trace() - d2.Trace()) / float64(n)
	st.TraceErr = math.Abs(best.Trace() - float64(opt.Ne))
	st.Converged = st.TraceErr < 1e-6
	return best, st, nil
}

// mcweenyIterate runs D <- 3D² - 2D³ until tr(D - D²)/n < tol.
func mcweenyIterate(d *mat.Matrix, tol float64, maxIter int) (*mat.Matrix, int) {
	n := d.Rows
	d2, d3 := mat.New(n, n), mat.New(n, n)
	it := 0
	for ; it < maxIter; it++ {
		mat.Gemm(1, d, d, 0, d2)
		mat.Gemm(1, d, d2, 0, d3)
		if (d.Trace()-d2.Trace())/float64(n) < tol {
			break
		}
		next := d2.Clone()
		next.Scale(3)
		next.Add(-2, d3)
		d = next
	}
	return d, it
}

func TestMcWeenyMatchesCanonical(t *testing.T) {
	for _, tc := range []struct{ n, ne int }{{10, 3}, {16, 8}, {24, 5}} {
		f := mat.BandedHamiltonian(tc.n, 4)
		want, wantSt, err := Serial(f, Options{Ne: tc.ne})
		if err != nil || !wantSt.Converged {
			t.Fatalf("canonical reference failed: %v %+v", err, wantSt)
		}
		got, st, err := McWeenySerial(f, Options{Ne: tc.ne, Tol: 1e-12, MaxIter: 200})
		if err != nil {
			t.Fatalf("n=%d ne=%d: %v", tc.n, tc.ne, err)
		}
		if !st.Converged {
			t.Fatalf("n=%d ne=%d: not converged: %+v", tc.n, tc.ne, st)
		}
		if diff := got.MaxAbsDiff(want); diff > 1e-5 {
			t.Errorf("n=%d ne=%d: McWeeny differs from canonical by %g", tc.n, tc.ne, diff)
		}
	}
}

func TestMcWeenyProjectorProperties(t *testing.T) {
	const n, ne = 20, 7
	f := mat.BandedHamiltonian(n, 3)
	d, _, err := McWeenySerial(f, Options{Ne: ne, Tol: 1e-13, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Trace()-float64(ne)) > 1e-6 {
		t.Errorf("trace %g", d.Trace())
	}
	d2 := mat.New(n, n)
	mat.Gemm(1, d, d, 0, d2)
	if diff := d2.MaxAbsDiff(d); diff > 1e-5 {
		t.Errorf("not idempotent: %g", diff)
	}
}

func TestMcWeenyGuessSpectrum(t *testing.T) {
	f := mat.BandedHamiltonian(18, 4)
	hmin, hmax := f.Gershgorin()
	for _, mu := range []float64{hmin, (hmin + hmax) / 2, hmax} {
		d := mcweenyGuess(f, mu)
		w, _, err := mat.JacobiEigen(d)
		if err != nil {
			t.Fatal(err)
		}
		if w[0] < -1e-9 || w[len(w)-1] > 1+1e-9 {
			t.Errorf("mu=%g: guess spectrum [%g,%g] outside [0,1]", mu, w[0], w[len(w)-1])
		}
	}
}

func TestMcWeenyErrors(t *testing.T) {
	f := mat.BandedHamiltonian(6, 2)
	if _, _, err := McWeenySerial(f, Options{Ne: 0}); err == nil {
		t.Error("Ne=0 accepted")
	}
	if _, _, err := McWeenySerial(f, Options{Ne: 7}); err == nil {
		t.Error("Ne>N accepted")
	}
}
