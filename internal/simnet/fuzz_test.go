package simnet

import (
	"testing"

	"commoverlap/internal/sim"
)

// FuzzChunking drives the four-stage chunked transfer pipeline with
// arbitrary message sizes, segmentation sizes and placements — two
// concurrent transfers so chunks interleave on shared stages — and asserts
// the accounting invariants that every schedule must preserve:
//
//   - the job completes (no deadlock among the transfer half-processes);
//   - both gates of each transfer fire, delivery no earlier than injection;
//   - the egress wire carries exactly the payload bytes of the inter-node
//     transfers — chunking neither drops, duplicates nor invents bytes;
//   - every resource reservation respects FIFO non-overlap.
func FuzzChunking(f *testing.F) {
	f.Add(int64(0), int64(1), int64(256<<10), false, true)
	f.Add(int64(1), int64(64<<10), int64(1), true, true)
	f.Add(int64(300_000), int64(300_000), int64(256<<10), false, false)
	f.Add(int64(1<<20), int64(777), int64(4096), true, false)
	f.Add(int64(255), int64(1<<21), int64(64<<10), false, true)

	f.Fuzz(func(t *testing.T, sizeA, sizeB, chunk int64, intraA, bulkB bool) {
		const maxSize = 4 << 20
		if sizeA < 0 || sizeA > maxSize || sizeB < 0 || sizeB > maxSize {
			t.Skip("size out of modeled range")
		}
		if chunk <= 0 || chunk > maxSize {
			t.Skip("chunk out of modeled range")
		}
		eng := sim.NewEngine()
		cfg := DefaultConfig(2)
		cfg.ChunkBytes = chunk
		net, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// FIFO non-overlap audit on every fabric resource.
		net.EachResource(func(r *sim.Resource) {
			name := r.Name
			prevDone := 0.0
			r.Audit = func(ready, start, done float64) {
				if start < ready || done < start || start < prevDone {
					t.Errorf("%s: reservation (ready=%g start=%g done=%g) after prev done %g",
						name, ready, start, done, prevDone)
				}
				prevDone = done
			}
		})

		src := net.NewEndpoint(0)
		dstA := net.NewEndpoint(1)
		if intraA {
			dstA = net.NewEndpoint(0)
		}
		dstB := net.NewEndpoint(1)

		injA, delA := net.Transfer(src, dstA, sizeA)
		var injB, delB *sim.Gate
		if bulkB {
			injB, delB = transferBulk(net, src, dstB, sizeB)
		} else {
			injB, delB = net.Transfer(src, dstB, sizeB)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("transfers deadlocked: %v", err)
		}

		for _, g := range []struct {
			name     string
			inj, del *sim.Gate
		}{{"A", injA, delA}, {"B", injB, delB}} {
			if !g.inj.Fired() || !g.del.Fired() {
				t.Fatalf("transfer %s: injected fired=%v delivered fired=%v, want both",
					g.name, g.inj.Fired(), g.del.Fired())
			}
			if g.del.FiredAt() < g.inj.FiredAt() {
				t.Errorf("transfer %s delivered at %g before injection completed at %g",
					g.name, g.del.FiredAt(), g.inj.FiredAt())
			}
		}

		wantWire := sizeB // B is always inter-node
		if !intraA {
			wantWire += sizeA
		}
		if got := net.nodes[0].egressBytes; got != wantWire {
			t.Errorf("egress wire carried %d bytes, want %d (chunking lost or invented data)", got, wantWire)
		}
		if got := net.TotalWireBytes(); got != wantWire {
			t.Errorf("TotalWireBytes() = %d, want %d", got, wantWire)
		}
	})
}
