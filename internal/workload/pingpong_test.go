package workload

import (
	"fmt"
	"runtime"
	"testing"
)

// runTable produces the full Table II grid at reduced reps for testing.
func runTable(t *testing.T, reps int) map[[3]int]Result {
	t.Helper()
	out := map[[3]int]Result{}
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			for _, m := range []Method{MethodCellPilot, MethodDMA, MethodCopy} {
				res, err := PingPong(PingPongConfig{Type: typ, Bytes: bytes, Method: m, Reps: reps})
				if err != nil {
					t.Fatalf("type %d %db %s: %v", typ, bytes, m, err)
				}
				out[[3]int{typ, bytes, int(m)}] = res
			}
		}
	}
	return out
}

func TestTable2Grid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in short mode")
	}
	grid := runTable(t, 100)
	t.Log("type bytes    CellPilot      DMA       Copy   (one-way us)")
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			cp := grid[[3]int{typ, bytes, 0}].OneWay.Micros()
			dma := grid[[3]int{typ, bytes, 1}].OneWay.Micros()
			cpy := grid[[3]int{typ, bytes, 2}].OneWay.Micros()
			t.Log(fmt.Sprintf("%4d %5d %10.1f %10.1f %10.1f", typ, bytes, cp, dma, cpy))
		}
	}

	// Shape invariants from paper Table II.
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			cp := grid[[3]int{typ, bytes, 0}].OneWay
			dma := grid[[3]int{typ, bytes, 1}].OneWay
			cpy := grid[[3]int{typ, bytes, 2}].OneWay
			if typ > 1 {
				// Every SPE-connected type pays Co-Pilot overhead.
				if cp <= dma || cp <= cpy {
					t.Errorf("type %d %dB: CellPilot (%s) should exceed hand-coded (%s dma / %s copy)",
						typ, bytes, cp, dma, cpy)
				}
			}
		}
	}
	// CellPilot latency ordering across types (1-byte column of Table II:
	// 59 < 105 < 112 < 140 < 189).
	order := []int{2, 1, 4, 3, 5}
	for i := 0; i+1 < len(order); i++ {
		a := grid[[3]int{order[i], 1, 0}].OneWay
		b := grid[[3]int{order[i+1], 1, 0}].OneWay
		if a >= b {
			t.Errorf("CellPilot 1B ordering violated: type %d (%s) >= type %d (%s)",
				order[i], a, order[i+1], b)
		}
	}
	// Figure 6 shape: hand-coded type-2 throughput dominates everything.
	best := grid[[3]int{2, 1600, 1}].ThroughputMBps
	for typ := 1; typ <= 5; typ++ {
		if cp := grid[[3]int{typ, 1600, 0}].ThroughputMBps; cp >= best {
			t.Errorf("type %d CellPilot throughput %.1f should be below hand-coded type-2 DMA %.1f", typ, cp, best)
		}
	}
}

func TestPingPongDeterministic(t *testing.T) {
	a, err := PingPong(PingPongConfig{Type: 5, Bytes: 1600, Method: MethodCellPilot, Reps: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PingPong(PingPongConfig{Type: 5, Bytes: 1600, Method: MethodCellPilot, Reps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a.OneWay != b.OneWay {
		t.Fatalf("non-deterministic: %s vs %s", a.OneWay, b.OneWay)
	}
}

func TestPingPongValidation(t *testing.T) {
	if _, err := PingPong(PingPongConfig{Type: 0, Bytes: 1}); err == nil {
		t.Fatal("type 0 accepted")
	}
	if _, err := PingPong(PingPongConfig{Type: 6, Bytes: 1}); err == nil {
		t.Fatal("type 6 accepted")
	}
}

// TestHandCodedCellsBackTouchedPagesOnly: a hand-coded Table II cell backs
// only the main-memory and local-store pages its buffers touch, and the
// page-table leaves that map them. Each used to back both nodes' whole
// 64 MiB main memories, about 135 MB a run; with a flat page table, the
// two nodes' 128 KiB tables made 0.26 MB of type 5's 0.37 MB. A run now
// allocates at most 0.09 MB, its cluster build included.
func TestHandCodedCellsBackTouchedPagesOnly(t *testing.T) {
	for _, m := range []Method{MethodDMA, MethodCopy} {
		for typ := 1; typ <= 5; typ++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := PingPong(PingPongConfig{Type: typ, Bytes: 1600, Method: m, Reps: 10}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 120_000 {
				t.Errorf("%v type %d: %.3f MB allocated, want under 0.12 MB", m, typ, float64(got)/1e6)
			}
		}
	}
}
