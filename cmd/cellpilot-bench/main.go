// Command cellpilot-bench regenerates every table and figure of the
// paper's evaluation (Section V) on the simulated cluster:
//
//	cellpilot-bench -exp table2     # Table II, measured vs paper
//	cellpilot-bench -exp fig5       # Figure 5 latency bars
//	cellpilot-bench -exp fig6       # Figure 6 throughput
//	cellpilot-bench -exp loc        # Section IV.C lines-of-code comparison
//	cellpilot-bench -exp footprint  # Section V SPE memory footprint
//	cellpilot-bench -exp ablations  # A1-A3 design-choice ablations
//	cellpilot-bench -exp phases     # per-phase latency breakdown (spans)
//	cellpilot-bench -exp chaos      # seeded fault-injection sweep (robustness)
//	cellpilot-bench -exp pingpong   # metered five-type grid (live telemetry)
//	cellpilot-bench -exp profile    # virtual-time profiler breakdown
//	cellpilot-bench -exp sizesweep  # 64B..1MB grid, chunk engine off vs on
//	cellpilot-bench -exp kiloscale  # 1000-node replica fleet, seq vs parallel arms
//	cellpilot-bench -exp all        # everything
//
// With -serve ADDR the process exposes OpenMetrics text at /metrics, a
// JSON snapshot at /metrics.json, the windowed telemetry timeline at
// /timeline.json, Go pprof profiles under /debug/pprof/ and expvar at
// /debug/vars over plain HTTP while the experiments run (the pingpong
// experiment publishes between batches, so a mid-run scrape watches the
// counters grow), and keeps serving after they finish.
//
// With -out DIR the pingpong experiment additionally writes a
// machine-readable BENCH_pingpong.json (ops, bytes, latency p50/p99 and
// bandwidth per channel type) and its critical-path blame
// BLAME_pingpong.json, and the sizesweep experiment BENCH_sizesweep.json.
// TestResultsRegenerate checks that the committed results/ copies
// regenerate byte-identically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cellpilot/internal/core"
	"cellpilot/internal/critpath"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/metrics"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
	"cellpilot/internal/workload"
)

// experiments is every value -exp accepts, alphabetized ("all" last).
// kiloscale runs only when named explicitly (it is a long wall-clock
// measurement), so "all" excludes it.
var experiments = []string{
	"ablations", "chaos", "cml", "fig5", "fig6", "footprint",
	"imb", "kiloscale", "loc", "phases", "pingpong", "profile",
	"sizesweep", "table2", "all",
}

// defaultReps is -reps's default, the paper's 1000 PingPong repetitions;
// results/ is generated with it.
const defaultReps = 1000

// validateExp rejects unknown experiment names up front — a typo must
// fail loudly, not silently run nothing.
func validateExp(exp string) error {
	for _, e := range experiments {
		if exp == e {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q; valid experiments: %s (scenario files run via the verbs: cellpilot-bench run <file.yaml>, cellpilot-bench validate)",
		exp, strings.Join(experiments, ", "))
}

func main() {
	// Scenario verbs dispatch before the flag surface: `run <file.yaml>`
	// executes scenario files, `validate` sweeps the scenarios/ library.
	if len(os.Args) > 1 && scenarioVerb(os.Args[1]) {
		os.Exit(scenarioCmd(os.Args[1], os.Args[2:]))
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|"))
	seed := flag.Int64("seed", 1, "chaos: base RNG seed for the fault schedule")
	chaosRuns := flag.Int("chaos-runs", 5, "chaos: number of seeded runs per scenario")
	reps := flag.Int("reps", defaultReps, "PingPong repetitions (paper: 1000)")
	repo := flag.String("repo", ".", "repository root (for the loc experiment)")
	chrome := flag.String("chrome", "", "phases: write Chrome trace JSON for -trace-type's run to this file")
	metricsOut := flag.String("metrics", "", "phases: write the metric registry JSON for -trace-type's run to this file")
	traceType := flag.Int("trace-type", 5, "phases/profile: channel type whose run the exporter flags capture")
	serve := flag.String("serve", "", "serve OpenMetrics (/metrics) and JSON (/metrics.json) on this address during and after the run")
	outDir := flag.String("out", "", "directory for machine-readable BENCH_<exp>.json results")
	folded := flag.String("folded", "", "profile: write folded-stack text for -trace-type's run to this file")
	pprofOut := flag.String("pprof", "", "profile: write a pprof profile for -trace-type's run to this file")
	quick := flag.Bool("quick", false, "kiloscale: shrink workloads for CI")
	shards := flag.Int("shards", 0, "kiloscale: host worker goroutines for the parallel arm (0 = one per host core)")
	listScen := flag.Bool("list-scenarios", false, "print the scenario library with one-line descriptions and exit")
	scenDir := flag.String("scenarios", "scenarios", "scenario library directory (for -list-scenarios and the validate verb)")
	flag.Parse()

	if *listScen {
		if err := listScenarioLibrary(*scenDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := validateExp(*exp); err != nil {
		log.Fatal(err)
	}

	var pub *metrics.Publisher
	serving := false
	if *serve != "" {
		pub = metrics.NewPublisher()
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := http.Serve(ln, pub.DebugHandler()); err != nil {
				log.Print(err)
			}
		}()
		serving = true
		fmt.Printf("serving metrics on http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	var rows []workload.Table2Row
	needGrid := want("table2") || want("fig5") || want("fig6")
	if needGrid {
		var err error
		rows, err = workload.Table2(*reps)
		if err != nil {
			log.Fatal(err)
		}
	}
	if want("table2") {
		fmt.Println(workload.FormatTable2(rows))
	}
	if want("fig5") {
		fmt.Println(workload.FormatFigure5(workload.Figure5(rows)))
	}
	if want("fig6") {
		fmt.Println(workload.FormatFigure6(workload.Figure6(rows)))
	}
	if want("loc") {
		lr, err := workload.CodeSizes(*repo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loc: %v (run from the repository root or pass -repo)\n", err)
		} else {
			fmt.Println(workload.FormatCodeSizes(lr))
		}
	}
	if want("footprint") {
		fmt.Println(workload.FormatFootprints(workload.Footprints(nil)))
	}
	if want("ablations") {
		runAblations(*reps)
	}
	if want("imb") {
		runIMB(*reps / 4)
	}
	if want("cml") {
		runCML(*reps / 4)
	}
	if want("phases") {
		runPhases(*reps/10, *traceType, *chrome, *metricsOut)
	}
	if want("chaos") {
		runChaos(*seed, *chaosRuns)
	}
	if want("pingpong") {
		runPingPongGrid(*reps, pub, *outDir)
	}
	if want("profile") {
		runProfile(*reps/10, *traceType, *folded, *pprofOut)
	}
	if want("sizesweep") {
		runSizeSweep(*outDir)
	}
	if *exp == "kiloscale" { // explicit only: a long wall-clock measurement
		runKiloscale(*shards, *seed, *quick)
	}
	if serving {
		fmt.Println("experiments done; still serving metrics (interrupt to exit)")
		select {}
	}
}

// runPingPongGrid runs the Table II pingpong grid (1600B payload, all five
// channel types) with one shared meter, publishing a registry snapshot to
// the live endpoint between batches so a concurrent scrape watches the
// counters grow, and optionally emits BENCH_pingpong.json.
func runPingPongGrid(reps int, pub *metrics.Publisher, outDir string) {
	if reps < 10 {
		reps = 10
	}
	const batches = 10
	meter := core.NewMeter()
	publish := func() {
		if pub != nil {
			pub.Publish(meter.Registry())
		}
	}
	publish()
	fmt.Println("metered pingpong grid (1600B payload, CellPilot, all five channel types)")
	type typeResult struct {
		Type         string  `json:"type"`
		Ops          int64   `json:"ops"`
		Bytes        int64   `json:"bytes"`
		OneWayUs     float64 `json:"one_way_us"`
		LatencyP50Us float64 `json:"latency_p50_us"`
		LatencyP99Us float64 `json:"latency_p99_us"`
		BandwidthP50 float64 `json:"bandwidth_mbps_p50"`
	}
	var results []typeResult
	blame := &critpath.File{Experiment: "pingpong", PayloadBytes: 1600, Reps: reps}
	for typ := 1; typ <= 5; typ++ {
		var oneWay sim.Time
		ran := 0
		for b := 0; b < batches; b++ {
			n := reps / batches
			if n < 1 {
				n = 1
			}
			cfg := workload.PingPongConfig{
				Type: typ, Bytes: 1600, Method: workload.MethodCellPilot, Reps: n,
				Metrics: meter,
			}
			var st core.Stats
			var tl *timeline.Recorder
			var fl *flowmap.Map
			if b == 0 {
				// Trace the first batch only: recording is free in virtual
				// time, so the timings match the untraced batches exactly,
				// and one batch of spans is enough for the blame baseline.
				// The timeline and flow observatory ride along for
				// /timeline.json and /flows.json.
				cfg.Trace = trace.NewRecorder(0)
				cfg.Stats = &st
				tl = timeline.New(0)
				cfg.Timeline = tl
				fl = flowmap.New(0)
				cfg.Flows = fl
			}
			res, err := workload.PingPong(cfg)
			if err != nil {
				log.Fatal(err)
			}
			if tl != nil && pub != nil {
				if data, err := json.Marshal(tl); err == nil {
					pub.PublishTimeline(append(data, '\n'))
				}
			}
			if fl != nil && pub != nil {
				if data, err := json.Marshal(fl); err == nil {
					pub.PublishFlows(append(data, '\n'))
				}
			}
			if b == 0 && st.CritPath != nil {
				f := st.CritPath.ToFile("pingpong", 1600, n)
				blame.Types = append(blame.Types, f.Types...)
				blame.Pairs = append(blame.Pairs, f.Pairs...)
			}
			oneWay += res.OneWay
			ran++
			publish()
		}
		oneWay /= sim.Time(ran)
		prefix := fmt.Sprintf("chan/type%d", typ)
		reg := meter.Registry()
		lat := reg.LookupHistogram(prefix + "/latency_us")
		bw := reg.LookupHistogram(prefix + "/bandwidth_mbps")
		tr := typeResult{
			Type:     fmt.Sprintf("type%d", typ),
			Ops:      reg.Counter(prefix + "/ops").Value(),
			Bytes:    reg.Counter(prefix + "/payload_bytes_total").Value(),
			OneWayUs: oneWay.Micros(),
		}
		if lat != nil {
			tr.LatencyP50Us, tr.LatencyP99Us = lat.Quantile(0.5), lat.Quantile(0.99)
		}
		if bw != nil && bw.Count() > 0 {
			tr.BandwidthP50 = bw.Quantile(0.5)
		}
		results = append(results, tr)
		fmt.Printf("type%d  one-way %8.1fus  ops=%-6d bytes=%-9d latency p50=%.1fus p99=%.1fus bw p50=%.1fMB/s\n",
			typ, tr.OneWayUs, tr.Ops, tr.Bytes, tr.LatencyP50Us, tr.LatencyP99Us, tr.BandwidthP50)
	}
	if outDir != "" {
		path := filepath.Join(outDir, "BENCH_pingpong.json")
		data, err := json.MarshalIndent(struct {
			Experiment   string       `json:"experiment"`
			Reps         int          `json:"reps"`
			PayloadBytes int          `json:"payload_bytes"`
			ChannelTypes []typeResult `json:"channel_types"`
		}{"pingpong", reps, 1600, results}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("results written to %s\n", path)
		bpath := filepath.Join(outDir, "BLAME_pingpong.json")
		bf, err := os.Create(bpath)
		if err != nil {
			log.Fatal(err)
		}
		if err := blame.Write(bf); err != nil {
			log.Fatal(err)
		}
		bf.Close()
		fmt.Printf("critical-path blame written to %s\n", bpath)
	}
}

// runSizeSweep runs the 64B..1MB PingPong grid over all five channel types
// with the chunk engine off and on, prints the paired latencies/bandwidths,
// and (with -out) emits BENCH_sizesweep.json.
func runSizeSweep(outDir string) {
	points, err := workload.SizeSweep(workload.SizeSweepConfig{})
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		Type          string  `json:"type"`
		Bytes         int     `json:"bytes"`
		Chunked       bool    `json:"chunked"`
		OneWayP50Us   float64 `json:"one_way_p50_us"`
		OneWayP99Us   float64 `json:"one_way_p99_us"`
		BandwidthMBps float64 `json:"bandwidth_mbps"`
	}
	rows := make([]row, 0, len(points))
	for _, p := range points {
		rows = append(rows, row{
			Type: fmt.Sprintf("type%d", p.Type), Bytes: p.Bytes, Chunked: p.Chunked,
			OneWayP50Us: p.OneWayP50.Micros(), OneWayP99Us: p.OneWayP99.Micros(),
			BandwidthMBps: p.BandwidthMBps,
		})
	}
	fmt.Println("size sweep: one-way p50 latency and bandwidth, chunk engine off vs on")
	for i := 0; i+1 < len(rows); i += 2 {
		b, c := rows[i], rows[i+1]
		speedup := 0.0
		if c.OneWayP50Us > 0 {
			speedup = b.OneWayP50Us / c.OneWayP50Us
		}
		fmt.Printf("%s %8dB  baseline %10.1fus %8.1fMB/s   chunked %10.1fus %8.1fMB/s   %.2fx\n",
			b.Type, b.Bytes, b.OneWayP50Us, b.BandwidthMBps, c.OneWayP50Us, c.BandwidthMBps, speedup)
	}
	if outDir != "" {
		path := filepath.Join(outDir, "BENCH_sizesweep.json")
		data, err := json.MarshalIndent(struct {
			Experiment string `json:"experiment"`
			ChunkSize  int    `json:"chunk_size"`
			Depth      int    `json:"pipeline_depth"`
			Points     []row  `json:"points"`
		}{"sizesweep", 8192, 4, rows}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("results written to %s\n", path)
	}
}

// runKiloscale runs the thousand-node replica fleet: for each workload it
// times a sequential reference arm (1 worker) and a parallel arm (-shards
// workers, 0 = one per host core), checks the two arms' fingerprints are
// bit-for-bit identical — the concurrent-replica determinism contract at
// full scale — and prints the wall-clock speedup the host actually
// delivered.
func runKiloscale(shards int, seed int64, quick bool) {
	nodes, ppReps, chReps := 1000, 10, 2
	if quick {
		nodes, ppReps, chReps = 120, 5, 2
	}
	fmt.Printf("kiloscale: %d simulated nodes as independent 3-node replicas\n", nodes)
	for _, wl := range []string{"pingpong", "chaos"} {
		reps := ppReps
		if wl == "chaos" {
			reps = chReps
		}
		arm := func(w int) (workload.KiloscaleResult, time.Duration) {
			t0 := time.Now()
			res, err := workload.Kiloscale(workload.KiloscaleConfig{
				Nodes: nodes, Workload: wl, Workers: w, Seed: seed, Reps: reps,
			})
			if err != nil {
				log.Fatal(err)
			}
			return res, time.Since(t0)
		}
		seq, seqWall := arm(1)
		par, parWall := arm(shards)
		match := "MATCH"
		if seq.Fingerprint != par.Fingerprint {
			match = "MISMATCH"
		}
		fmt.Printf("  %-8s %d replicas, %d events, vt %s, 1 vs %d host workers\n",
			wl, par.Replicas, par.Events, par.VirtualTime, par.Workers)
		fmt.Printf("           seq %8.0fms (%8.0f events/s)  par %8.0fms (%8.0f events/s)  speedup %.2fx\n",
			float64(seqWall.Milliseconds()), float64(seq.Events)/seqWall.Seconds(),
			float64(parWall.Milliseconds()), float64(par.Events)/parWall.Seconds(),
			float64(seqWall)/float64(parWall))
		fmt.Printf("           fingerprint %s vs %s: %s\n", seq.Fingerprint, par.Fingerprint, match)
		if match == "MISMATCH" {
			log.Fatalf("kiloscale: %s seq/par fingerprints diverge — parallel determinism broken", wl)
		}
	}
}

// runProfile reruns the pingpong grid with the virtual-time profiler
// attached and prints each type's exclusive-bucket attribution — where
// every process's virtual lifetime went (compute, pack, mailbox, Co-Pilot
// service, MPI, copy/relay). The -folded and -pprof flags export the
// -trace-type run for flamegraph and pprof tooling.
func runProfile(reps, traceType int, foldedPath, pprofPath string) {
	if reps < 10 {
		reps = 10
	}
	fmt.Println("virtual-time attribution per process (1600B payload, CellPilot)")
	for typ := 1; typ <= 5; typ++ {
		prof := profile.New()
		if _, err := workload.PingPong(workload.PingPongConfig{
			Type: typ, Bytes: 1600, Method: workload.MethodCellPilot, Reps: reps,
			Profile: prof,
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- type%d ---\n%s", typ, prof.Report())
		if typ == traceType {
			if foldedPath != "" {
				writeFile(foldedPath, prof.FoldedStacks)
				fmt.Printf("  folded stacks for type%d written to %s\n", typ, foldedPath)
			}
			if pprofPath != "" {
				writeFile(pprofPath, prof.WritePprof)
				fmt.Printf("  pprof profile for type%d written to %s\n", typ, pprofPath)
			}
		}
	}
}

// runChaos sweeps seeded fault schedules over concurrent traffic on all
// five Table I channel types, printing per-scenario delivery and fault
// counters plus a determinism check (every seed is run twice and the two
// outcomes must be bit-for-bit identical).
func runChaos(seed int64, runs int) {
	if runs < 1 {
		runs = 1
	}
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	scenarios := []struct {
		name string
		cfg  workload.ChaosConfig
	}{
		{"loss10", workload.ChaosConfig{LossProb: 0.1}},
		{"kill-spe", workload.ChaosConfig{KillSPE: true}},
		{"mbox-drops", workload.ChaosConfig{MailboxDrops: 4}},
		{"combined", workload.ChaosConfig{LossProb: 0.1, KillSPE: true, MailboxDrops: 2}},
	}
	fmt.Println("chaos sweep: 5 channel types x 20 round trips per run, seeded fault schedules")
	for _, sc := range scenarios {
		rs, err := workload.ChaosSweep(sc.cfg, seeds)
		if err != nil {
			log.Fatal(err)
		}
		rs2, err := workload.ChaosSweep(sc.cfg, seeds)
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range rs {
			det := "deterministic"
			if r.Fingerprint() != rs2[i].Fingerprint() {
				det = "NON-DETERMINISTIC"
			}
			status := "clean"
			if r.RunErr != "" {
				status = "degraded"
			}
			fmt.Printf("%-10s seed=%-3d %-9s done=%v drops=%d rexmit=%d mbox=%d/%d killed=%d timeouts=%d  %s\n",
				sc.name, r.Config.Seed, status, r.Completed[1:],
				r.Counts.LinkDrops, r.Counts.Retransmits,
				r.Counts.MailboxDrops, r.Counts.MailboxReposts,
				r.Counts.ProcsKilled, r.Counts.OpTimeouts, det)
		}
	}
}

// runPhases reruns the Table II pingpong grid with the recorder and meter
// attached and decomposes each channel type's one-way latency into its
// transfer phases (mailbox, Co-Pilot wait/service, relay/copy, MPI) — the
// observability view of where Table II's microseconds go. Observation is
// free in virtual time, so the latencies match the uninstrumented runs
// exactly.
func runPhases(reps, traceType int, chromePath, metricsPath string) {
	if reps < 10 {
		reps = 10
	}
	fmt.Println("phase breakdown per one-way transfer (1600B payload, CellPilot)")
	for typ := 1; typ <= 5; typ++ {
		rec := trace.NewRecorder(0)
		meter := core.NewMeter()
		res, err := workload.PingPong(workload.PingPongConfig{
			Type: typ, Bytes: 1600, Method: workload.MethodCellPilot, Reps: reps,
			Trace: rec, Metrics: meter,
		})
		if err != nil {
			log.Fatal(err)
		}
		spans := rec.Spans()
		phase := map[trace.PhaseKind]sim.Time{}
		for _, sp := range spans {
			for _, ph := range sp.Phases {
				phase[ph.Phase] += ph.Dur()
			}
		}
		kinds := make([]trace.PhaseKind, 0, len(phase))
		for k := range phase {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return phase[kinds[i]] > phase[kinds[j]] })
		fmt.Printf("type%d  one-way %8.1fus  (%d spans):", typ, res.OneWay.Micros(), len(spans))
		for _, k := range kinds {
			fmt.Printf("  %s=%.1fus", k, (phase[k] / sim.Time(len(spans))).Micros())
		}
		fmt.Println()
		if typ == traceType {
			if chromePath != "" {
				writeFile(chromePath, rec.WriteChrome)
				fmt.Printf("  chrome trace for type%d written to %s\n", typ, chromePath)
			}
			if metricsPath != "" {
				writeFile(metricsPath, func(w io.Writer) error {
					data, err := meter.Registry().MarshalJSON()
					if err != nil {
						return err
					}
					_, err = w.Write(append(data, '\n'))
					return err
				})
				fmt.Printf("  metrics for type%d written to %s\n", typ, metricsPath)
			}
		}
	}
}

// writeFile writes one exporter's output ("-" = stdout).
func writeFile(path string, fn func(w io.Writer) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
}

// runCML compares the Cell Messaging Layer baseline against CellPilot's
// general type-5 channel for remote SPE↔SPE transfers — the generality
// vs. performance trade-off the paper's related-work section implies.
func runCML(reps int) {
	if reps < 10 {
		reps = 10
	}
	fmt.Println("CML baseline vs CellPilot (remote SPE↔SPE, one-way)")
	for _, bytes := range []int{1, 1600} {
		cp, err := workload.PingPong(workload.PingPongConfig{
			Type: 5, Bytes: bytes, Method: workload.MethodCellPilot, Reps: reps,
		})
		if err != nil {
			log.Fatal(err)
		}
		cml, err := workload.CMLPingPong(bytes, reps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6dB: CML %8.1fus   CellPilot type5 %8.1fus\n",
			bytes, cml.Micros(), cp.OneWay.Micros())
	}
	fmt.Println("(CML: ranks on SPEs only, no PPE/non-Cell endpoints, no formats, no type checking)")
}

// runIMB prints the wider IMB-MPI1 pattern set over the raw transport —
// the benchmark suite the paper's Section V measurement methodology
// comes from.
func runIMB(reps int) {
	if reps < 10 {
		reps = 10
	}
	sizes := []int{0, 64, 1024, 1600, 16384}
	fmt.Println("IMB-MPI1 patterns on the simulated transport (avg per op)")
	for _, pat := range []workload.IMBPattern{
		workload.IMBPingPong, workload.IMBPingPing, workload.IMBSendRecv,
		workload.IMBExchange, workload.IMBBcast, workload.IMBAllreduce,
	} {
		ranks := 8
		if pat == workload.IMBPingPong || pat == workload.IMBPingPing {
			ranks = 2
		}
		fmt.Printf("%-10s (%d ranks):", pat, ranks)
		for _, sz := range sizes {
			if sz == 0 {
				continue
			}
			res, err := workload.IMB(workload.IMBConfig{Pattern: pat, Ranks: ranks, Bytes: sz, Reps: reps})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %dB=%.1fus", sz, res.AvgTime.Micros())
		}
		fmt.Println()
	}
	b, err := workload.IMB(workload.IMBConfig{Pattern: workload.IMBBarrier, Ranks: 8, Reps: reps})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s (8 ranks):  %.1fus\n", workload.IMBBarrier, b.AvgTime.Micros())
}

func runAblations(reps int) {
	mpiPath, direct, err := workload.AblationDirectLocal(reps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("A1 — type-2 PPE↔Co-Pilot leg: local MPI (paper design) vs direct copy")
	fmt.Printf("%-10s %12s %12s\n", "payload", "local MPI", "direct copy")
	for i, bytes := range []int{1, 1600} {
		fmt.Printf("%-10d %10.1fus %10.1fus\n", bytes, mpiPath[i].Micros(), direct[i].Micros())
	}
	fmt.Println()

	intervals := []sim.Time{2 * sim.Microsecond, 5 * sim.Microsecond, 10 * sim.Microsecond,
		14 * sim.Microsecond, 20 * sim.Microsecond, 40 * sim.Microsecond, 80 * sim.Microsecond}
	poll, err := workload.AblationPoll(intervals, reps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("A2 — type-4 latency vs Co-Pilot poll interval (1-byte payload)")
	for _, iv := range intervals {
		t := poll[iv]
		fmt.Printf("poll %6s: %8.1fus |%s\n", iv, t.Micros(), strings.Repeat("#", int(t.Micros()/4)))
	}
	fmt.Println()

	fmt.Println("A4 — Co-Pilot placement: one per node (paper) vs one per Cell")
	fmt.Printf("%-8s %14s %14s\n", "pairs", "per-node", "per-cell")
	for _, pairs := range []int{2, 4, 6, 8} {
		single, err := workload.CoPilotContention(false, pairs, 4)
		if err != nil {
			log.Fatal(err)
		}
		per, err := workload.CoPilotContention(true, pairs, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %12.1fus %12.1fus\n", pairs, single.Micros(), per.Micros())
	}
	fmt.Println()

	sizes := []int{64, 512, 1600, 8192, 65536}
	thresholds := []int{1, 4096, 1 << 20}
	eager, err := workload.AblationEager(sizes, thresholds, reps/4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("A3 — type-1 latency vs MPI eager threshold")
	fmt.Printf("%-10s", "payload")
	for _, th := range thresholds {
		fmt.Printf(" %10s", fmt.Sprintf("thr=%d", th))
	}
	fmt.Println()
	for _, sz := range sizes {
		fmt.Printf("%-10d", sz)
		for _, th := range thresholds {
			fmt.Printf(" %8.1fus", eager[[2]int{th, sz}].Micros())
		}
		fmt.Println()
	}
}
