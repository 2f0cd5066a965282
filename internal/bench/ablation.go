package bench

import (
	"io"

	"commoverlap/internal/core"
	"commoverlap/internal/machine"
	"commoverlap/internal/mesh"
	"commoverlap/internal/simnet"
)

// Ablations for the design choices DESIGN.md calls out: the collective
// algorithm switch points, the protocol chunk size, and the fabric core
// capacity. Each sweeps one knob around its default while everything else
// stays at the calibrated configuration, reporting optimized-kernel
// performance at the paper's main size.

// AblationRow is one knob setting's result.
type AblationRow struct {
	Knob   string
	Value  string
	TFlops float64
}

// ablated runs the optimized kernel on a p-edge cubic mesh (n, N_DUP=ndup,
// PPN=ppn) on the machine m describes — a non-default fabric, switch point
// or placement — and returns its TFlops.
func ablated(m machine.Spec, n, p, ndup, ppn int) (float64, error) {
	kr, err := runKernel(m, mesh.Cubic(p), core.Config{N: n, NDup: ndup, PPN: ppn}, variant(core.Optimized))
	return kr.TFlops, err
}

// Ablate sweeps the three knobs and prints the sensitivity table.
func Ablate(w io.Writer, n int) ([]AblationRow, error) {
	if n == 0 {
		n = Systems[2].N
	}
	fprintf(w, "Ablations: optimized kernel (4^3 mesh, N_DUP=4, N=%d) vs design knobs\n", n)
	fprintf(w, "%-22s %-12s %8s\n", "knob", "value", "TFlops")
	var rows []AblationRow
	add := func(knob, value string, tf float64) {
		rows = append(rows, AblationRow{Knob: knob, Value: value, TFlops: tf})
		fprintf(w, "%-22s %-12s %8.2f\n", knob, value, tf)
	}

	// 1. Protocol chunk size: too coarse costs pipelining, too fine costs
	//    per-chunk overheads.
	chunks := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	cells, err := parcases(len(chunks), func(i int) (float64, error) {
		cfg := simnet.DefaultConfig(1)
		cfg.ChunkBytes = chunks[i]
		return ablated(machine.Spec{Config: cfg}, n, 4, 4, 1)
	})
	if err != nil {
		return rows, err
	}
	for i, chunk := range chunks {
		add("chunk bytes", byteLabel(chunk), cells[i])
	}

	// 2. Reduce algorithm switch point: forcing binomial trees for the
	//    kernel's ~7 MB bands shows why Rabenseifner matters. The switch
	//    point is per-World configuration, so the two jobs fan through the
	//    replica pool like every other group.
	limits := []int64{64 << 10, 1 << 30}
	cells, err = parcases(len(limits), func(i int) (float64, error) {
		return ablated(machine.Spec{Config: simnet.DefaultConfig(1), ReduceLongMsg: limits[i]}, n, 4, 4, 1)
	})
	if err != nil {
		return rows, err
	}
	for i, lim := range limits {
		label := "rabenseifner"
		if lim > 1<<29 {
			label = "binomial"
		}
		add("reduce algorithm", label, cells[i])
	}

	// 3. Rank placement: the paper's "natural" assignment keeps each mesh
	//    column (the reduce fibers) mostly on one node; round-robin spreads
	//    it across nodes.
	cells, err = parcases(2, func(i int) (float64, error) {
		m := machine.Spec{Config: simnet.DefaultConfig(1)}
		if i == 1 {
			ranks := mesh.Cubic(6).Size()
			m.Placement = mesh.RoundRobinPlacement(ranks, mesh.NodesNeeded(ranks, 4))
		}
		return ablated(m, n, 6, 4, 4)
	})
	if err != nil {
		return rows, err
	}
	add("placement (PPN=4)", "natural", cells[0])
	add("placement (PPN=4)", "round-robin", cells[1])

	// 4. Reduction arithmetic rate: the kernel is reduce-bound, so the
	//    single-core combine rate is a first-order term.
	scales := []float64{0.5, 1, 2}
	cells, err = parcases(len(scales), func(i int) (float64, error) {
		cfg := simnet.DefaultConfig(1)
		cfg.ReduceRate *= scales[i]
		return ablated(machine.Spec{Config: cfg}, n, 4, 4, 1)
	})
	if err != nil {
		return rows, err
	}
	for i, scale := range scales {
		add("reduce arith rate", map[float64]string{0.5: "0.5x", 1: "1x", 2: "2x"}[scale], cells[i])
	}

	// 5. Fabric core capacity: a non-blocking core vs 2:1 and 4:1
	//    oversubscription (total node bandwidth / core bandwidth).
	factors := []float64{0, 2, 4}
	cells, err = parcases(len(factors), func(i int) (float64, error) {
		cfg := simnet.DefaultConfig(1)
		if factors[i] > 0 {
			cfg.CoreBandwidth = 64 * cfg.WireBandwidth / factors[i]
		}
		return ablated(machine.Spec{Config: cfg}, n, 4, 4, 1)
	})
	if err != nil {
		return rows, err
	}
	for i, factor := range factors {
		label := "non-blocking"
		if factor == 2 {
			label = "2:1 oversub"
		} else if factor == 4 {
			label = "4:1 oversub"
		}
		add("fabric core", label, cells[i])
	}
	return rows, nil
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return itoa(int(b>>20)) + "MiB"
	case b >= 1<<10:
		return itoa(int(b>>10)) + "KiB"
	default:
		return itoa(int(b)) + "B"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
