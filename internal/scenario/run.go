package scenario

import (
	"fmt"
	"sort"
	"strings"

	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/critpath"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
	"cellpilot/internal/workload"
)

// Options tunes one scenario execution.
type Options struct {
	// Quick shrinks the long measurement arms (pingpong/sizesweep/imb
	// reps) to bound validate's runtime. Chaos reps are never shrunk —
	// committed fault-count assertions depend on them. Quick outcomes are
	// not comparable against golden fingerprints.
	Quick bool
}

// Outcome is everything one scenario run observed, plus the fingerprint
// that renders it for golden comparison and determinism checks.
type Outcome struct {
	Scenario *Scenario
	Quick    bool
	// Fingerprint is the deterministic rendering of the whole outcome.
	Fingerprint string
	PingPong    *PingPongOutcome
	Chaos       *ChaosOutcome
	Sweep       []workload.SizeSweepPoint
	IMB         *workload.IMBResult
	// DeterminismRuns counts how many full executions the determinism
	// assertion compared (0 = no determinism assertion).
	DeterminismRuns int
	// DeterminismDiff is empty when every re-run fingerprinted
	// identically; otherwise it carries the first diverging lines.
	DeterminismDiff string
}

// PingPongOutcome is the measured five-type latency grid.
type PingPongOutcome struct {
	Bytes, Reps int
	Types       []PingPongType
}

// PingPongType is one channel type's latency/bandwidth measurement.
type PingPongType struct {
	Type int
	// OneWay is the mean one-way latency; P50/P99 are one-way quantiles
	// over the timed rounds.
	OneWay, P50, P99 sim.Time
	MBps             float64
}

// ChaosOutcome is the chaos seed sweep's outcome.
type ChaosOutcome struct {
	Reps int
	Runs []ChaosRun
}

// ChaosRun is one seed's result plus the traced post-run report (its
// CritPath field carries the blame decomposition and contention pairs).
type ChaosRun struct {
	Seed   int64
	Result workload.ChaosResult
	Stats  core.Stats
	// Timeline is the run's telemetry recorder, attached when the scenario
	// declares a timeline block or any temporal assertion; nil otherwise.
	Timeline *timeline.Recorder
	// Flows is the run's flow observatory, attached when the scenario
	// carries a flow assertion; nil otherwise.
	Flows *flowmap.Map
}

// Run executes a validated scenario: every workload entry in order on the
// declared topology, faults lowered into the chaos entries, and — when a
// determinism assertion is present — the whole suite re-executed and
// fingerprint-compared. The returned error is an execution error (a
// workload refused to run); assertion violations are Check's business.
func Run(s *Scenario, opt Options) (*Outcome, error) {
	out, err := runOnce(s, opt)
	if err != nil {
		return nil, err
	}
	runs := 0
	for _, a := range s.Assertions {
		if a.Kind == AssertDeterminism {
			r := a.Runs
			if r == 0 {
				r = 2
			}
			if r > runs {
				runs = r
			}
		}
	}
	for i := 1; i < runs; i++ {
		again, err := runOnce(s, opt)
		if err != nil {
			return nil, fmt.Errorf("determinism re-run %d: %w", i+1, err)
		}
		if again.Fingerprint != out.Fingerprint {
			out.DeterminismDiff = firstDiff(out.Fingerprint, again.Fingerprint)
			break
		}
	}
	out.DeterminismRuns = runs
	return out, nil
}

func runOnce(s *Scenario, opt Options) (*Outcome, error) {
	t := s.topology()
	out := &Outcome{Scenario: s, Quick: opt.Quick}
	var fp strings.Builder
	fmt.Fprintf(&fp, "scenario=%s seed=%d topology=%dx%d+%d\n",
		s.Name, s.seed(), t.CellNodes, t.CellsPerNode, t.XeonNodes)
	plan := s.lowerFaults()
	for i, w := range s.Workloads {
		w = w.effective(s.seed(), opt.Quick)
		spec := func() *cluster.Spec {
			return &cluster.Spec{CellNodes: t.CellNodes, CellsPerNode: t.CellsPerNode, XeonNodes: t.XeonNodes}
		}
		switch w.Kind {
		case KindPingPong:
			po := &PingPongOutcome{Bytes: w.Bytes, Reps: w.Reps}
			for _, typ := range w.Types {
				var rtts []sim.Time
				res, err := workload.PingPong(workload.PingPongConfig{
					Type: typ, Bytes: w.Bytes, Method: workload.MethodCellPilot,
					Reps: w.Reps, Transfer: w.Transfer,
					RoundTrips: &rtts, Spec: spec(),
				})
				if err != nil {
					return nil, fmt.Errorf("workloads[%d] pingpong type %d: %w", i, typ, err)
				}
				p50, p99 := oneWayQuantiles(rtts)
				pt := PingPongType{Type: typ, OneWay: res.OneWay, P50: p50, P99: p99, MBps: res.ThroughputMBps}
				po.Types = append(po.Types, pt)
				fmt.Fprintf(&fp, "pingpong type=%d bytes=%d oneway_ns=%d p50_ns=%d p99_ns=%d mbps=%.3f\n",
					typ, w.Bytes, int64(pt.OneWay), int64(pt.P50), int64(pt.P99), pt.MBps)
			}
			if out.PingPong == nil {
				out.PingPong = po
			}
		case KindChaos:
			co := &ChaosOutcome{Reps: w.Reps}
			wantTimeline := s.Timeline.Window > 0 || s.hasTemporalAssertion()
			wantFlows := s.hasFlowAssertion()
			for _, seed := range w.Seeds {
				rec := trace.NewRecorder(0)
				var st core.Stats
				var tl *timeline.Recorder
				if wantTimeline {
					tl = timeline.New(s.Timeline.Window)
				}
				var fl *flowmap.Map
				if wantFlows {
					fl = flowmap.New(0)
				}
				res, err := workload.Chaos(workload.ChaosConfig{
					Seed: seed, Reps: w.Reps, Bytes: w.Bytes,
					SoftTimeout: w.SoftTimeout, Transfer: w.Transfer,
					Spec: spec(), Plan: plan, Stats: &st,
					Sinks: core.Sinks{Trace: rec, Timeline: tl, Flows: fl},
				})
				if err != nil {
					return nil, fmt.Errorf("workloads[%d] chaos seed %d: %w", i, seed, err)
				}
				co.Runs = append(co.Runs, ChaosRun{Seed: seed, Result: res, Stats: st, Timeline: tl, Flows: fl})
				fmt.Fprintf(&fp, "chaos seed=%d\n", seed)
				for _, line := range strings.Split(strings.TrimRight(res.Fingerprint(), "\n"), "\n") {
					fmt.Fprintf(&fp, "  %s\n", line)
				}
				writeBlameLines(&fp, st.CritPath)
				if tl != nil {
					for _, line := range strings.Split(strings.TrimRight(tl.Fingerprint(), "\n"), "\n") {
						fmt.Fprintf(&fp, "  %s\n", line)
					}
				}
				if fl != nil {
					for _, line := range strings.Split(strings.TrimRight(fl.FingerprintLines(), "\n"), "\n") {
						fmt.Fprintf(&fp, "  %s\n", line)
					}
				}
			}
			if out.Chaos == nil {
				out.Chaos = co
			}
		case KindSizeSweep:
			pts, err := workload.SizeSweep(workload.SizeSweepConfig{
				Reps: w.Reps, Transfer: w.Transfer, Sizes: w.Sizes, Spec: spec(),
			})
			if err != nil {
				return nil, fmt.Errorf("workloads[%d] sizesweep: %w", i, err)
			}
			if out.Sweep == nil {
				out.Sweep = pts
			}
			for _, pt := range pts {
				fmt.Fprintf(&fp, "sweep type=%d bytes=%d chunked=%v p50_ns=%d p99_ns=%d mbps=%.3f\n",
					pt.Type, pt.Bytes, pt.Chunked, int64(pt.OneWayP50), int64(pt.OneWayP99), pt.BandwidthMBps)
			}
		case KindIMB:
			pat, err := imbPattern(w.Pattern)
			if err != nil {
				return nil, fmt.Errorf("workloads[%d] imb: %w", i, err)
			}
			res, err := workload.IMB(workload.IMBConfig{
				Pattern: pat, Ranks: w.Ranks, Bytes: w.Bytes, Reps: w.Reps,
				Nodes: t.CellNodes,
			})
			if err != nil {
				return nil, fmt.Errorf("workloads[%d] imb: %w", i, err)
			}
			if out.IMB == nil {
				out.IMB = &res
			}
			fmt.Fprintf(&fp, "imb pattern=%s ranks=%d bytes=%d avg_ns=%d mbps=%.3f\n",
				res.Config.Pattern, res.Config.Ranks, res.Config.Bytes, int64(res.AvgTime), res.MBps)
		}
	}
	out.Fingerprint = fp.String()
	return out, nil
}

// writeBlameLines renders the critical-path decomposition into the
// fingerprint: per channel type the top stage and its share, plus the
// contention-pair count. Shares round to 1e-4 so the rendering is exact.
func writeBlameLines(fp *strings.Builder, rep *critpath.Report) {
	if rep == nil {
		return
	}
	for _, tb := range rep.Types {
		stage, share := topStage(tb)
		fmt.Fprintf(fp, "  blame type=%d transfers=%d total_ns=%d top=%s share=%.4f\n",
			tb.ChanType, tb.Transfers, int64(tb.Total), stage, share)
	}
	fmt.Fprintf(fp, "  contention pairs=%d\n", len(rep.Pairs))
}

// topStage names the stage owning the largest share of a type's critical
// path and that share in [0, 1].
func topStage(tb critpath.TypeBlame) (string, float64) {
	if tb.Total == 0 || len(tb.Stages) == 0 {
		return "none", 0
	}
	best := tb.Stages[0]
	for _, sb := range tb.Stages[1:] {
		if sb.Total() > best.Total() {
			best = sb
		}
	}
	return critpath.StageName(best.Phase), float64(best.Total()) / float64(tb.Total)
}

// stageShare returns the named stage's share of a type's critical path.
func stageShare(tb critpath.TypeBlame, stage string) float64 {
	if tb.Total == 0 {
		return 0
	}
	var sum sim.Time
	for _, sb := range tb.Stages {
		if critpath.StageName(sb.Phase) == stage {
			sum += sb.Total()
		}
	}
	return float64(sum) / float64(tb.Total)
}

// oneWayQuantiles reduces round-trip samples to one-way p50/p99.
func oneWayQuantiles(rtts []sim.Time) (p50, p99 sim.Time) {
	if len(rtts) == 0 {
		return 0, 0
	}
	s := append([]sim.Time(nil), rtts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) sim.Time {
		return s[int(q*float64(len(s)-1))] / 2
	}
	return at(0.5), at(0.99)
}

// firstDiff renders the first diverging line of two fingerprints.
func firstDiff(a, b string) string {
	al := strings.Split(a, "\n")
	bl := strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("fingerprint line %d diverged:\n  run 1: %s\n  rerun: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("fingerprint length diverged: %d vs %d lines", len(al), len(bl))
}
