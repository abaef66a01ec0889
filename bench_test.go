package cellpilot

// Benchmarks regenerating the paper's evaluation (Section V). Each
// benchmark iteration is one PingPong round trip on the simulated
// cluster; the reported custom metrics are the paper's quantities:
// virtual one-way latency in microseconds (Table II, Figure 5) and
// throughput in MB/s (Figure 6). Wall-clock ns/op measures the simulator
// itself and is not a paper quantity.
//
//	go test -bench BenchmarkTable2 -benchmem
//	go test -bench . -benchmem
//
// The per-experiment index lives in DESIGN.md §4; paper-vs-measured
// numbers are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
	"cellpilot/internal/workload"
)

// runPingPong drives one Table II cell with b.N round trips.
func runPingPong(b *testing.B, cfg workload.PingPongConfig) {
	b.Helper()
	cfg.Reps = b.N
	res, err := workload.PingPong(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.OneWay.Micros(), "vus/oneway")
	b.ReportMetric(res.ThroughputMBps, "MB/s")
}

// BenchmarkTable2 regenerates every cell of paper Table II (and the bars
// of Figure 5): 5 channel types × {1, 1600} bytes × 3 methods.
func BenchmarkTable2(b *testing.B) {
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			for _, m := range []workload.Method{
				workload.MethodCellPilot, workload.MethodDMA, workload.MethodCopy,
			} {
				b.Run(fmt.Sprintf("type%d/%dB/%s", typ, bytes, m), func(b *testing.B) {
					runPingPong(b, workload.PingPongConfig{Type: typ, Bytes: bytes, Method: m})
				})
			}
		}
	}
}

// BenchmarkFigure6 regenerates the Figure 6 throughput series: the
// 1600-byte (100 long double) array across all types and methods.
func BenchmarkFigure6(b *testing.B) {
	for typ := 1; typ <= 5; typ++ {
		for _, m := range []workload.Method{
			workload.MethodCellPilot, workload.MethodDMA, workload.MethodCopy,
		} {
			b.Run(fmt.Sprintf("type%d/%s", typ, m), func(b *testing.B) {
				runPingPong(b, workload.PingPongConfig{Type: typ, Bytes: 1600, Method: m})
			})
		}
	}
}

// BenchmarkFootprint regenerates the Section V memory comparison: the SPE
// local-store budget under CellPilot's 10336-byte runtime vs DaCS's
// 36600-byte library.
func BenchmarkFootprint(b *testing.B) {
	for _, row := range workload.Footprints(nil) {
		row := row
		b.Run(row.Library, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := workload.Footprints(nil)
				if rows[0].UsableLS <= rows[1].UsableLS {
					b.Fatal("CellPilot must leave more usable local store than DaCS")
				}
			}
			b.ReportMetric(float64(row.UsableLS), "usableLSbytes")
			b.ReportMetric(float64(row.MaxMessage), "maxmsgbytes")
		})
	}
}

// BenchmarkAblationType2Path is ablation A1: the type-2 PPE↔Co-Pilot leg
// over local MPI (the paper's design) versus a direct shared-memory copy
// (the speed-up its Section V analysis predicts).
func BenchmarkAblationType2Path(b *testing.B) {
	for _, direct := range []bool{false, true} {
		name := "local-mpi"
		if direct {
			name = "direct-copy"
		}
		for _, bytes := range []int{1, 1600} {
			b.Run(fmt.Sprintf("%s/%dB", name, bytes), func(b *testing.B) {
				runPingPong(b, workload.PingPongConfig{
					Type: 2, Bytes: bytes, Method: workload.MethodCellPilot, DirectLocal: direct,
				})
			})
		}
	}
}

// BenchmarkAblationCoPilotPerCell is ablation A4: contention on a
// dual-Cell blade, one Co-Pilot per node (the paper's design) vs one per
// Cell processor.
func BenchmarkAblationCoPilotPerCell(b *testing.B) {
	for _, perCell := range []bool{false, true} {
		name := "per-node"
		if perCell {
			name = "per-cell"
		}
		for _, pairs := range []int{2, 6} {
			b.Run(fmt.Sprintf("%s/pairs%d", name, pairs), func(b *testing.B) {
				var total sim.Time
				for i := 0; i < b.N; i++ {
					t, err := workload.CoPilotContention(perCell, pairs, 4)
					if err != nil {
						b.Fatal(err)
					}
					total = t
				}
				b.ReportMetric(total.Micros(), "vus/run")
			})
		}
	}
}

// BenchmarkAblationPollInterval is ablation A2: type-4 latency versus the
// Co-Pilot mailbox polling interval.
func BenchmarkAblationPollInterval(b *testing.B) {
	for _, iv := range []sim.Time{
		2 * sim.Microsecond, 5 * sim.Microsecond, 14 * sim.Microsecond,
		40 * sim.Microsecond, 80 * sim.Microsecond,
	} {
		b.Run(iv.String(), func(b *testing.B) {
			par := cellbe.DefaultParams()
			par.CoPilotPoll = iv
			runPingPong(b, workload.PingPongConfig{
				Type: 4, Bytes: 1, Method: workload.MethodCellPilot, Params: par,
			})
		})
	}
}

// BenchmarkAblationEagerThreshold is ablation A3: type-1 latency across
// payload sizes under different MPI eager/rendezvous thresholds.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, th := range []int{1, 4096, 1 << 20} {
		for _, bytes := range []int{64, 1600, 65536} {
			b.Run(fmt.Sprintf("thr%d/%dB", th, bytes), func(b *testing.B) {
				par := cellbe.DefaultParams()
				par.EagerThreshold = th
				runPingPong(b, workload.PingPongConfig{
					Type: 1, Bytes: bytes, Method: workload.MethodCellPilot, Params: par,
				})
			})
		}
	}
}

// BenchmarkScatterSearch measures the Section VI case study end to end:
// virtual completion time of the SPE-offloaded heuristic per worker-farm
// size.
func BenchmarkScatterSearch(b *testing.B) {
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				res, err := workload.ScatterSearch(workload.ScatterConfig{
					Items: 128, Workers: workers, Iterations: 2, Seed: 11,
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Micros(), "vus/run")
		})
	}
}

// BenchmarkMatMul measures the block matrix-multiplication case study:
// virtual completion time per worker count, exposing where the problem
// flips from compute-bound to communication-bound.
func BenchmarkMatMul(b *testing.B) {
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("n128/workers%d", workers), func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				res, err := workload.MatMul(workload.MatMulConfig{N: 128, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Micros(), "vus/run")
		})
	}
}

// BenchmarkIMB runs the wider IMB-MPI1 pattern set (the paper's
// measurement suite) over the raw simulated transport.
func BenchmarkIMB(b *testing.B) {
	for _, pat := range []workload.IMBPattern{
		workload.IMBPingPong, workload.IMBPingPing, workload.IMBSendRecv,
		workload.IMBExchange, workload.IMBBcast, workload.IMBAllreduce, workload.IMBBarrier,
	} {
		ranks := 8
		if pat == workload.IMBPingPong || pat == workload.IMBPingPing {
			ranks = 2
		}
		b.Run(fmt.Sprintf("%s/%dranks", pat, ranks), func(b *testing.B) {
			res, err := workload.IMB(workload.IMBConfig{
				Pattern: pat, Ranks: ranks, Bytes: 1600, Reps: b.N,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.AvgTime.Micros(), "vus/op")
		})
	}
}

// BenchmarkStencil measures the halo-exchange workload: virtual time for
// a fixed-size domain as the SPE ring grows (communication/computation
// balance of nearest-neighbour codes).
func BenchmarkStencil(b *testing.B) {
	for _, workers := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				res, err := workload.Stencil(workload.StencilConfig{
					Workers: workers, CellsPerWorker: 256 / workers, Iterations: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.MaxErr != 0 {
					b.Fatal("stencil diverged")
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Micros(), "vus/run")
		})
	}
}

// BenchmarkCMLBaseline measures the Cell Messaging Layer baseline on the
// remote SPE↔SPE exchange, for comparison with BenchmarkTable2/type5.
func BenchmarkCMLBaseline(b *testing.B) {
	for _, bytes := range []int{1, 1600} {
		b.Run(fmt.Sprintf("%dB", bytes), func(b *testing.B) {
			oneWay, err := workload.CMLPingPong(bytes, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(oneWay.Micros(), "vus/oneway")
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator substrate itself:
// simulated messages per wall-clock second on the type-5 path (the most
// event-intensive protocol). This is an engineering metric, not a paper
// figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	runPingPong(b, workload.PingPongConfig{Type: 5, Bytes: 1600, Method: workload.MethodCellPilot})
}
