// Command bench is the repository's host-cost benchmark. It drives four
// workloads through the layers' public functions, times each run's build
// phase (cluster, App or MPI world, processes, channels, sinks) apart from
// its run phase (App.Run or Kernel.Run), measures heap use, and checks
// every run's simulated outcome against a pinned reference. See README.md.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-spans FILE] [-json FILE] [-sets N] [-baseline FILE]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is 1 when
// a correctness check fails (or a set or baseline comparison exceeds a
// bound) and 2 on a usage error or a refused baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// schema versions the -json report; bump it on any incompatible change.
const schema = 1

// envRecord is the shape of a run. Two reports compare only if everything
// but the revision matches.
type envRecord struct {
	Schema     int            `json:"schema"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"revision"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	MinRuns    int            `json:"min_runs"`
	Rounds     map[string]int `json:"rounds"`
}

func captureEnv(seed int64, seconds int) envRecord {
	e := envRecord{
		Schema: schema, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
		Seed: seed, Seconds: seconds, MinRuns: minRuns, Rounds: map[string]int{},
	}
	for _, w := range workloads {
		e.Rounds[w.name] = w.rounds
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			e.Revision = rev + dirty
		}
	}
	return e
}

// sameShape reports why two environments' results may not be compared.
func sameShape(a, b envRecord) error {
	a.Revision, b.Revision = "", ""
	ja, _ := json.Marshal(a) // plain struct: cannot fail
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		return fmt.Errorf("run shape differs:\n  baseline %s\n  this run %s", ja, jb)
	}
	return nil
}

func (e envRecord) String() string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d %s revision=%s seed=%d seconds=%d min_runs=%d rounds=%v",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Revision, e.Seed, e.Seconds, e.MinRuns, e.Rounds)
}

// report is the -json file.
type report struct {
	Env     envRecord `json:"env"`
	Results []result  `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all four, in order)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 25, "measure each workload for this many seconds (at least 3 runs)")
	traceFlag := fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	spansPath := fs.String("spans", "", "write the traced runs' spans to this JSONL file (implies -trace 1)")
	jsonPath := fs.String("json", "", "write the full report to this file")
	sets := fs.Int("sets", 1, "measure every workload this many times and compare each set with the first")
	baseline := fs.String("baseline", "", "compare with a report written by -json; refused if its run shape differs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *traceFlag != 0 && *traceFlag != 1:
		return usage("-trace must be 0 or 1")
	case *seconds < 1:
		return usage("-seconds must be at least 1")
	case *sets < 1:
		return usage("-sets must be at least 1")
	}
	selected := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return usage("unknown workload %q (have %s)", *only, strings.Join(names, ", "))
		}
		selected = []workload{w}
	}
	traced := *traceFlag == 1 || *spansPath != ""

	// The simulation runs one goroutine at a time. With a second P, a proc
	// hand-off can wake the idle P through the OS scheduler; on a 2-CPU host
	// that made runs about 15 % slower and twice as variable as one P.
	runtime.GOMAXPROCS(1)
	env := captureEnv(*seed, *seconds)
	var base *report
	if *baseline != "" {
		b, err := readReport(*baseline)
		if err == nil {
			err = sameShape(b.Env, env)
		}
		if err != nil {
			return usage("refusing baseline %s: %v", *baseline, err)
		}
		base = &b
	}
	fmt.Fprintln(stdout, env)

	o := options{seed: *seed, seconds: *seconds, traced: traced, epoch: time.Now()}
	ok := true
	var all [][]result
	var logs []*spanLog
	for s := 0; s < *sets; s++ {
		var results []result
		for _, w := range selected {
			res, spans := measure(w, w.rounds, o)
			printResult(stdout, res)
			ok = ok && res.Correct
			results = append(results, res)
			if spans != nil {
				logs = append(logs, spans)
			}
		}
		all = append(all, results)
	}
	for s := 1; s < len(all); s++ {
		fmt.Fprintf(stdout, "\nset %d against set 1 (either direction must stay within the bound):\n", s+1)
		ok = compare(stdout, all[0], all[s], true) && ok
	}
	if base != nil {
		fmt.Fprintf(stdout, "\nthis run against %s (worse must stay within the bound):\n", *baseline)
		ok = compare(stdout, base.Results, all[0], false) && ok
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, report{Env: env, Results: all[0]}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			ok = false
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, logs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			ok = false
		}
	}
	line, err := json.Marshal(resultLine(all, traced))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// resultLine is the final stdout line: op counts over every run made, and
// the first set's end-to-end values (per-layer values when traced). With
// more than one workload the metric names are prefixed "workload/".
func resultLine(all [][]result, traced bool) line {
	l := line{Correct: true, Metrics: map[string]lineMetric{}}
	for _, set := range all {
		for _, res := range set {
			l.Correct = l.Correct && res.Correct
			l.Attempted += res.Attempted
			l.Failed += res.Failed
		}
	}
	for _, res := range all[0] {
		prefix := ""
		if len(all[0]) > 1 {
			prefix = res.Workload + "/"
		}
		if traced {
			for _, m := range perLayer {
				l.Metrics[prefix+m.name] = lineMetric{res.Layer[m.name], m.unit}
			}
			continue
		}
		for _, m := range endToEnd {
			l.Metrics[prefix+m.name] = lineMetric{res.Metrics[m.name].Value, m.unit}
		}
	}
	return l
}

func printResult(w io.Writer, res result) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n%s: %d rounds per flow, %d measured runs, %s (%d ops attempted, %d failed)\n",
		res.Workload, res.Rounds, res.Runs, verdict, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	fmt.Fprintf(w, "  %-26s %-10s %14s %14s %14s %14s %3s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		s := res.Metrics[m.name]
		fmt.Fprintf(w, "  %-26s %-10s %14.6g %14.6g %14.6g %14.6g %3d\n", m.name, m.unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "  %-26s %-10s %14.6g\n", "failed_frac", "ratio", res.FailedFrac)
	if res.Table2ErrPct != nil {
		fmt.Fprintf(w, "  %-26s %-10s %14.6g   (virtual, in-sample: Table II is the calibration data)\n", "table2_err_pct", "%", *res.Table2ErrPct)
	}
	if res.Layer != nil {
		fmt.Fprintf(w, "  per-layer, from the traced run:\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-26s %-10s %14.6g\n", m.name, m.unit, res.Layer[m.name])
		}
	}
}

// compare prints every end-to-end metric of two result sets side by side
// with its bound, and reports whether all stay within it. worse is the
// relative change of the reported value in the metric's bad direction;
// twoSided also fails an improvement larger than the bound (two sets of
// the same code).
func compare(w io.Writer, base, cur []result, twoSided bool) bool {
	ok := true
	fmt.Fprintf(w, "  %-15s %-17s %26s %26s %8s %6s\n", "workload", "metric", "first value [q1, q3]", "second value [q1, q3]", "worse", "bound")
	for _, b := range base {
		var c *result
		for i := range cur {
			if cur[i].Workload == b.Workload {
				c = &cur[i]
			}
		}
		if c == nil {
			continue
		}
		for _, m := range endToEnd {
			sb, sc := b.Metrics[m.name], c.Metrics[m.name]
			worse := ratio(sc.Value-sb.Value, sb.Value)
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.bound || (twoSided && -worse > m.bound) {
				verdict, ok = "OUT", false
			}
			fmt.Fprintf(w, "  %-15s %-17s %26s %26s %+7.1f%% %5.0f%% %s\n", b.Workload, m.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", sb.Value, sb.Q1, sb.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", sc.Value, sc.Q1, sc.Q3),
				100*worse, 100*m.bound, verdict)
		}
	}
	return ok
}

func writeReport(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
