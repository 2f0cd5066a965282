// Package core implements the paper's contribution: the SymmSquareCube
// kernel (simultaneous D² and D³ of a symmetric matrix) in its original
// (Alg. 3), baseline (Alg. 4) and communication-overlapped optimized
// (Alg. 5) forms on a 3D process mesh, a 2.5D/Cannon variant (Alg. 6), and
// the pipelined parallel matrix-vector product used as the paper's
// expository example (Algs. 1-2). All variants run over the simulated MPI
// library and produce numerically identical results in real mode.
package core

import (
	"fmt"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
)

// Phase names one communication phase of the optimized SymmSquareCube
// schedule (Alg. 5). The auto-tuner measures each phase's collective in
// isolation and Config.PhaseNDup lets the kernel apply a different pipeline
// width per phase.
type Phase string

const (
	// PhaseBcastA is the grid broadcast of the A bands (lines 1-3).
	PhaseBcastA Phase = "bcastA"
	// PhaseBcastB is the row broadcast of D_{k,j} (lines 4-7).
	PhaseBcastB Phase = "bcastB"
	// PhaseReduce2 is the column reduction of C toward D² (lines 10-12).
	PhaseReduce2 Phase = "reduce2"
	// PhaseBcastB2 is the row broadcast of the reduced D² (lines 13-16).
	PhaseBcastB2 Phase = "bcastB2"
	// PhaseReduce3 is the column reduction toward D³ (lines 19-21).
	PhaseReduce3 Phase = "reduce3"
	// PhaseShip covers the point-to-point shipments of D² and D³ to plane
	// 0 (lines 22-27).
	PhaseShip Phase = "ship"
)

// Phases lists the optimized kernel's phases in schedule order.
var Phases = []Phase{PhaseBcastA, PhaseBcastB, PhaseReduce2, PhaseBcastB2, PhaseReduce3, PhaseShip}

// Config controls a kernel run.
type Config struct {
	// N is the global matrix dimension.
	N int
	// NDup is the pipeline width of the nonblocking-overlap technique:
	// the number of duplicated communicators, each carrying 1/NDup of the
	// data. NDup == 1 disables overlap (Alg. 5 degenerates to Alg. 4).
	NDup int
	// Real selects real arithmetic (for correctness tests) over phantom
	// payloads (for paper-scale benchmarks).
	Real bool
	// PPN is the number of ranks sharing each node's cores, used to charge
	// local GEMM time. It should match the placement the world was built
	// with. Zero means 1.
	PPN int
	// PhaseNDup overrides the pipeline width for individual phases of the
	// optimized kernel; phases absent from the map use NDup. The tuned
	// configuration layer fills this from a persisted tuning table. Every
	// rank must pass identical overrides. When two adjacent phases share a
	// width the root still hands bands off pipelined (band c re-posted the
	// moment it completes); when the widths differ the handoff falls back
	// to a full wait between the phases.
	PhaseNDup map[Phase]int
	// Progress selects the asynchronous progress engine for the job the
	// kernel runs in (progress.Parse labels: "" off, "rankN" agents per
	// node, "dma" the per-node offload engine). The kernel itself only
	// validates the label; the launching harness (bench.KernelCfg) builds
	// the machine and world accordingly — rank-mode agents ride in extra
	// launched lanes that park while the mesh ranks work.
	Progress string
}

// Validate reports the first invalid setting: a non-positive N, NDup or
// per-phase width, a negative PPN, an unknown phase, or an unparseable
// progress label.
func (c *Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N = %d", c.N)
	}
	if c.NDup <= 0 {
		return fmt.Errorf("core: NDup = %d", c.NDup)
	}
	if c.PPN < 0 {
		return fmt.Errorf("core: PPN = %d", c.PPN)
	}
	for ph, nd := range c.PhaseNDup {
		if !knownPhase(ph) {
			return fmt.Errorf("core: unknown phase %q in PhaseNDup", ph)
		}
		if nd <= 0 {
			return fmt.Errorf("core: PhaseNDup[%s] = %d", ph, nd)
		}
	}
	if _, err := progress.Parse(c.Progress); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

func knownPhase(ph Phase) bool {
	for _, p := range Phases {
		if p == ph {
			return true
		}
	}
	return false
}

// phaseNDup returns the pipeline width for one phase: the override if set,
// NDup otherwise.
func (c *Config) phaseNDup(ph Phase) int {
	if nd, ok := c.PhaseNDup[ph]; ok {
		return nd
	}
	return c.NDup
}

// maxNDup returns the widest pipeline any phase uses — the number of
// communicator duplicates each family needs.
func (c *Config) maxNDup() int {
	w := c.NDup
	for _, nd := range c.PhaseNDup {
		if nd > w {
			w = nd
		}
	}
	return w
}

// Env is the per-rank kernel environment: the mesh communicators plus NDup
// duplicates of each family, created once (outside the timed region, as in
// GTFock) and reused across purification iterations.
type Env struct {
	P   *mpi.Proc
	M   *mesh.Comms
	Cfg Config

	RowDup, ColDup, GridDup, WorldDup []*mpi.Comm

	// GemmTime accumulates the virtual time this rank spent in local matrix
	// multiplication, so harnesses can separate compute from communication.
	GemmTime float64

	// Trace, when non-nil, receives (label, virtual time) pairs at phase
	// boundaries of the kernels; the Fig. 6-style timeline harness uses it.
	Trace func(label string, t float64)
}

// trace emits a phase boundary to the Trace hook, if installed.
func (e *Env) trace(label string) {
	if e.Trace != nil {
		e.Trace(label, e.P.Now())
	}
}

// NewEnv builds the communicator families for the calling rank. Every rank
// of the world must call NewEnv with identical dims and cfg.
func NewEnv(p *mpi.Proc, dims mesh.Dims, cfg Config) (*Env, error) {
	return NewEnvOn(p, p.World(), dims, cfg)
}

// NewEnvOn builds the kernel environment over an explicit communicator, so
// a kernel can run on a subset of the job's ranks (the paper's per-kernel
// PPN mechanism parks the rest). Every rank of comm must call NewEnvOn.
func NewEnvOn(p *mpi.Proc, comm *mpi.Comm, dims mesh.Dims, cfg Config) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PPN == 0 {
		cfg.PPN = 1
	}
	m, err := mesh.Build(comm, dims)
	if err != nil {
		return nil, err
	}
	e := &Env{P: p, M: m, Cfg: cfg}
	width := cfg.maxNDup()
	e.RowDup = m.Row.DupN(width)
	e.ColDup = m.Col.DupN(width)
	e.GridDup = m.Grid.DupN(width)
	e.WorldDup = m.World.DupN(width)
	return e, nil
}

// nd returns the pipeline width the optimized kernel uses for one phase.
func (e *Env) nd(ph Phase) int { return e.Cfg.phaseNDup(ph) }

// blocks returns the row/column partition of the global matrix over the
// mesh edge.
func (e *Env) blocks() mat.BlockDim {
	return mat.BlockDim{N: e.Cfg.N, P: e.M.Dims.Q}
}

// newBlock allocates a rows x cols working matrix, real or phantom per the
// configuration.
func (e *Env) newBlock(rows, cols int) *mat.Matrix {
	if e.Cfg.Real {
		return mat.New(rows, cols)
	}
	return mat.NewPhantom(rows, cols)
}

// buf wraps a whole matrix as a message payload.
func (e *Env) buf(m *mat.Matrix) mpi.Buffer {
	if m.Phantom() {
		return mpi.Phantom(m.Bytes())
	}
	if m.Stride != m.Cols {
		panic("core: message from non-contiguous matrix view")
	}
	return mpi.F64(m.Data[:m.Rows*m.Cols])
}

// bandBuf wraps the c-th of NDup contiguous row bands of m — the paper's
// "c-th part" of a block, kept contiguous so no repacking is needed between
// pipelined operations (Section III principle 3).
func (e *Env) bandBuf(m *mat.Matrix, c int) mpi.Buffer {
	return e.bandBufN(m, c, e.Cfg.NDup)
}

// bandBufN is bandBuf with an explicit band count, for phases running at a
// width other than the global NDup.
func (e *Env) bandBufN(m *mat.Matrix, c, nd int) mpi.Buffer {
	bd := mat.BlockDim{N: m.Rows, P: nd}
	lo, n := bd.Offset(c), bd.Count(c)
	if m.Phantom() {
		return mpi.Phantom(int64(n) * int64(m.Cols) * 8)
	}
	if m.Stride != m.Cols {
		panic("core: band of non-contiguous matrix view")
	}
	return mpi.F64(m.Data[lo*m.Cols : (lo+n)*m.Cols])
}

// gemm performs C = A*B + accumulate*C, charging virtual compute time for
// the node share this rank owns and doing the real arithmetic in real mode.
func (e *Env) gemm(a, b, c *mat.Matrix, accumulate bool) {
	t0 := e.P.Now()
	e.P.Compute(mat.GemmFlops(a.Rows, a.Cols, b.Cols), e.Cfg.PPN)
	beta := 0.0
	if accumulate {
		beta = 1.0
	}
	mat.Gemm(1, a, b, beta, c)
	e.GemmTime += e.P.Now() - t0
}

// Result carries one rank's kernel output and timing.
type Result struct {
	// D2 and D3 are this rank's blocks of the results, valid on plane k=0
	// (nil elsewhere), distributed exactly like the input D.
	D2, D3 *mat.Matrix
	// Time is the rank's elapsed virtual time inside the kernel.
	Time float64
	// GemmTime is the portion of Time spent in local multiplication; the
	// remainder is communication (including synchronization).
	GemmTime float64
}

// KernelFlops returns the floating-point operations counted for one
// SymmSquareCube invocation (two N^3 multiplications), the figure the
// paper's TFlops numbers divide by.
func KernelFlops(n int) float64 {
	fn := float64(n)
	return 4 * fn * fn * fn
}

// Variant selects a SymmSquareCube implementation.
type Variant int

const (
	// Original is Algorithm 3 (GTFock's released version).
	Original Variant = iota
	// Baseline is Algorithm 4 (transpose eliminated, sends moved late).
	Baseline
	// Optimized is Algorithm 5 (pipelined + overlapped, width NDup).
	Optimized
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Original:
		return "original(alg3)"
	case Baseline:
		return "baseline(alg4)"
	case Optimized:
		return "optimized(alg5)"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// SymmSquareCube runs the selected variant. D is this rank's input block on
// plane k=0 (ignored elsewhere); the result blocks come back on plane 0.
func (e *Env) SymmSquareCube(v Variant, d *mat.Matrix) Result {
	start := e.P.Now()
	g0 := e.GemmTime
	var d2, d3 *mat.Matrix
	switch v {
	case Original:
		d2, d3 = e.symmSquareCubeOriginal(d)
	case Baseline:
		d2, d3 = e.symmSquareCubeBaseline(d)
	case Optimized:
		d2, d3 = e.symmSquareCubeOptimized(d)
	default:
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
	return Result{
		D2:       d2,
		D3:       d3,
		Time:     e.P.Now() - start,
		GemmTime: e.GemmTime - g0,
	}
}
