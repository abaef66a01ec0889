package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"cellpilot/internal/core"
	paper "cellpilot/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden.json from full-length runs at the default seed")

// smallRounds keeps every workload's run in the smoke test to milliseconds.
const smallRounds = 12

// TestWorkloadsSmoke runs every workload through the full protocol —
// warm-up, minRuns measured runs, the traced run and, for chaos-observed,
// the sink-free run — at a few rounds, and checks the outputs the benchmark
// promises.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, spans := measure(w, smallRounds, options{seed: 3, traced: true, epoch: time.Now()})
			if !res.Correct || res.Failed != 0 || len(res.Problems) > 0 {
				t.Fatalf("not correct: failed %d of %d, problems %q", res.Failed, res.Attempted, res.Problems)
			}
			if res.Runs != minRuns {
				t.Errorf("runs = %d, want %d", res.Runs, minRuns)
			}
			for _, m := range endToEnd {
				s, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", m.name)
				case s.Unit != m.unit || s.N != res.Runs:
					t.Errorf("%s: unit %q n %d, want %q n %d", m.name, s.Unit, s.N, m.unit, res.Runs)
				case s.Median <= 0 || s.Value <= 0:
					t.Errorf("%s: median %v value %v, want > 0", m.name, s.Median, s.Value)
				}
			}
			for _, m := range perLayer {
				if _, ok := res.Layer[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if len(spans.spans) == 0 || spans.spans[0].Name != "build" {
				t.Errorf("span log does not start with the build phase: %v", spans.spans[:min(1, len(spans.spans))])
			}

			for _, traced := range []bool{false, true} {
				l := resultLine([][]result{{res}}, traced)
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(l.Metrics) != len(want) || !l.Correct || l.Attempted != res.Attempted {
					t.Errorf("result line (traced=%v): %d metrics, correct %v, attempted %d", traced, len(l.Metrics), l.Correct, l.Attempted)
				}
				for _, m := range want {
					if l.Metrics[m.name].Unit != m.unit {
						t.Errorf("result line metric %s: unit %q, want %q", m.name, l.Metrics[m.name].Unit, m.unit)
					}
				}
			}

			rep := report{Env: captureEnv(3, 1), Results: []result{res}}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back report
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, rep) {
				t.Errorf("report does not survive a JSON round trip")
			}
		})
	}
}

// TestObservationLeavesFingerprint checks that the traced run (stride-1
// host profiler, spans) and chaos-observed's sink-free run reproduce the
// plain run's virtual outcome bit for bit.
func TestObservationLeavesFingerprint(t *testing.T) {
	for _, w := range workloads {
		fp := func(traced, bare bool) string {
			r := &rep{seed: 5, rounds: smallRounds, traced: traced, bare: bare}
			if traced {
				r.spans = &spanLog{epoch: time.Now(), workload: w.name}
			}
			if err := w.run(r); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return r.fp.String()
		}
		plain := fp(false, false)
		if got := fp(true, false); got != plain {
			t.Errorf("%s: traced fingerprint\n%s\ndiffers from plain\n%s", w.name, got, plain)
		}
		if !w.sinks {
			continue
		}
		if got := fp(false, true); got != plain {
			t.Errorf("%s: sink-free fingerprint\n%s\ndiffers from observed\n%s", w.name, got, plain)
		}
	}
}

// TestSerialDriversMatchPingPong shows the serial workloads measure the
// program the paper tables come from: each type's virtual one-way time
// equals workload.PingPong's for the same payload and transfer setting.
func TestSerialDriversMatchPingPong(t *testing.T) {
	const rounds = 8
	for _, tc := range []struct {
		elems int
		tr    core.TransferOptions
	}{{100, core.TransferOptions{}}, {4096, streamTransfer}} {
		for typ := 1; typ <= 5; typ++ {
			r := &rep{seed: 1, rounds: rounds}
			if err := runPingPongType(r, typ, tc.elems, tc.tr); err != nil {
				t.Fatal(err)
			}
			want, err := paper.PingPong(paper.PingPongConfig{
				Type: typ, Bytes: 16 * tc.elems, Method: paper.MethodCellPilot, Reps: rounds, Transfer: tc.tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.oneWay[typ] != want.OneWay {
				t.Errorf("%d B type %d: one-way %v, workload.PingPong %v", 16*tc.elems, typ, r.oneWay[typ], want.OneWay)
			}
		}
	}
}

// TestIMBDriverMatchesIMB: the imb64-exchange driver's per-iteration
// virtual time equals workload.IMB's for the same Exchange configuration.
func TestIMBDriverMatchesIMB(t *testing.T) {
	const rounds = 6
	want, err := paper.IMB(paper.IMBConfig{
		Pattern: paper.IMBExchange, Ranks: imbRanks, Nodes: imbRanks, Bytes: imbBytes, Reps: rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rep{seed: 1, rounds: rounds}
	if err := runIMB(r); err != nil {
		t.Fatal(err)
	}
	if r.iterTime != want.AvgTime {
		t.Errorf("per-iteration %v, workload.IMB %v", r.iterTime, want.AvgTime)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which describes the
// benchmark to its users, in step with the metric tables the code reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range want {
			e := got[i]
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || (e.Bound != nil) != bounded ||
				(bounded && *e.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, e, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(in, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{0.9, 1.7, 1.1, 1.3, 1.2, 1.0, 1.5}, [3]float64{1.0, 1.2, 1.5}},
	} {
		q1, med, q3 := quartiles(tc.in)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if d := got[i] - tc.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// TestValueIsGoodEndDecile: the reported value is the run at the 10th
// percentile counted from the metric's good end.
func TestValueIsGoodEndDecile(t *testing.T) {
	runs := []float64{7, 3, 10, 1, 9, 5, 2, 8, 4, 6, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if got := summarize(metric{"t", "s", "lower", 0.25}, runs).Value; got != 2 {
		t.Errorf("lower is better: value %v, want 2", got)
	}
	if got := summarize(metric{"r", "1/s", "higher", 0.25}, runs).Value; got != 18 {
		t.Errorf("higher is better: value %v, want 18", got)
	}
	if got := summarize(metric{"t", "s", "lower", 0.25}, []float64{4, 3, 5}).Value; got != 3 {
		t.Errorf("three runs: value %v, want the best, 3", got)
	}
}

func TestBaselineOfAnotherShapeRefused(t *testing.T) {
	a := captureEnv(1, 10)
	b := a
	b.Revision = "another-commit"
	if err := sameShape(a, b); err != nil {
		t.Errorf("a different revision must compare: %v", err)
	}
	for name, mutate := range map[string]func(e *envRecord){
		"seconds":    func(e *envRecord) { e.Seconds = 5 },
		"seed":       func(e *envRecord) { e.Seed = 2 },
		"nproc":      func(e *envRecord) { e.NProc++ },
		"gomaxprocs": func(e *envRecord) { e.GOMAXPROCS++ },
		"go":         func(e *envRecord) { e.GoVersion = "go0" },
		"schema":     func(e *envRecord) { e.Schema++ },
		"rounds":     func(e *envRecord) { e.Rounds = map[string]int{"pingpong-1600": 1} },
	} {
		c := captureEnv(1, 10)
		mutate(&c)
		if sameShape(a, c) == nil {
			t.Errorf("a report with another %s must be refused", name)
		}
	}
}

// TestGolden rewrites golden.json with -update; every benchmark run at the
// default seed checks against it, so without -update there is nothing
// further to check here.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	g := map[string]golden{}
	for _, w := range workloads {
		r := &rep{seed: 1, rounds: w.rounds}
		if err := w.run(r); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.okMsgs != w.msgs(w.rounds) {
			t.Fatalf("%s: %d of %d messages intact", w.name, r.okMsgs, w.msgs(w.rounds))
		}
		g[w.name] = golden{Seed: 1, Rounds: w.rounds, Fingerprint: r.fp.String()}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
