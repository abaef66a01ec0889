package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/hostprof"
	paper "cellpilot/internal/workload"
)

// metric is one reported number. Bound applies to end-to-end metrics: the
// share of a baseline median by which the metric may get worse before a
// change counts as a regression. BENCHMARK.json repeats these tables; a
// test keeps the two in step.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every one is host cost; the simulated outcome is checked
// exactly instead (see checker).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"setup_mb", "MB", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.02},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"rt_p10_us", "us", "lower", 0.25},
	{"alloc_kb_per_msg", "KB", "lower", 0.02},
	{"allocs_per_msg", "count", "lower", 0.02},
}

// perLayer are the traced run's per-layer metrics. Self times are shares
// of the traced run phase, so a layer a workload never enters reads 0
// rather than a constant zero duration.
var perLayer = []metric{
	{"rt_p50_us", "us", "lower", 0},
	{"rt_p99_us", "us", "lower", 0},
	{"cluster.new_s", "s", "lower", 0},
	{"cluster.new_mb", "MB", "lower", 0},
	{"core.setup_s", "s", "lower", 0},
	{"cellbe.mem_used_kb", "KB", "lower", 0},
	{"cellbe.backing_used_frac", "frac", "higher", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_msg", "events/msg", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.queue_depth_max", "count", "lower", 0},
	{"sim.cancel_purged", "count", "lower", 0},
	{"sim.self_frac", "frac", "lower", 0},
	{"op.write_us_p50", "us", "lower", 0},
	{"op.read_us_p50", "us", "lower", 0},
	{"copilot.reqs", "count", "lower", 0},
	{"copilot.util_max", "frac", "lower", 0},
	{"copilot.self_frac", "frac", "lower", 0},
	{"user.self_frac", "frac", "lower", 0},
	{"fmtmsg.calls", "count", "lower", 0},
	{"fmtmsg.self_frac", "frac", "lower", 0},
	{"fmtmsg.pack_ns", "ns", "lower", 0},
	{"fmtmsg.unpack_ns", "ns", "lower", 0},
	{"fmtmsg.allocs_per_op", "count", "lower", 0},
	{"mpi.calls", "count", "lower", 0},
	{"mpi.self_frac", "frac", "lower", 0},
	{"net.msgs", "count", "lower", 0},
	{"net.mb", "MB", "lower", 0},
	{"net.goodput_frac", "frac", "higher", 0},
	{"net.link_util_max", "frac", "lower", 0},
	{"interconnect.self_frac", "frac", "lower", 0},
	{"fault.link_drops", "count", "lower", 0},
	{"fault.retransmits", "count", "lower", 0},
	{"fault.mailbox_reposts", "count", "lower", 0},
	{"fault.op_timeouts", "count", "lower", 0},
	{"obs.overhead_pct", "%", "lower", 0},
	{"obs.alloc_mb", "MB", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
	{"trace.run_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage_frac", "frac", "higher", 0},
}

// minRuns is the fewest measured runs per workload, however long they take.
const minRuns = 3

// stat summarises one metric over the measured runs. Value is the number
// reported for it: the run at the 10th percentile counted from the good
// end, that is the 10th percentile of a lower-is-better metric and the
// 90th of a higher-is-better one.
//
// The host drops into a slow state, 1.5 to 1.7 times slower, for spells of
// a few seconds to minutes, and such a spell can cover most of one
// invocation's runs; the median over runs then reads the slow state. The
// good-end decile reads the fast state whenever a few runs fall outside a
// spell. README.md gives the spreads of both.
type stat struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// result is one workload's measurement.
type result struct {
	Workload  string   `json:"workload"`
	Rounds    int      `json:"rounds"`
	Runs      int      `json:"runs"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// FailedFrac is Failed over Attempted. It is not a BENCHMARK.json
	// metric: the result line carries the two counts instead.
	FailedFrac float64 `json:"failed_frac"`
	// Table2ErrPct is the virtual Table II error (pingpong-1600 only).
	Table2ErrPct *float64           `json:"table2_err_pct,omitempty"`
	Fingerprint  string             `json:"fingerprint"`
	Metrics      map[string]stat    `json:"metrics"`
	Layer        map[string]float64 `json:"layer,omitempty"`
}

type options struct {
	seed    int64
	seconds int
	traced  bool
	epoch   time.Time // zero of the span clock
}

// measure runs one workload through the protocol: a discarded warm-up run,
// measured runs with tracing off until the time is up (at least minRuns),
// then, if traced, one traced run — and for a workload with sinks, one run
// with them detached. Every run's virtual outcome is checked.
func measure(w workload, rounds int, o options) (result, *spanLog) {
	res := result{Workload: w.name, Rounds: rounds}
	chk := newChecker(w.name, o.seed, rounds)
	do := func(traced, bare bool, spans *spanLog) *rep {
		r := &rep{seed: o.seed, rounds: rounds, traced: traced, bare: bare, spans: spans}
		err := w.run(r)
		attempted := w.msgs(rounds)
		failed := attempted - r.okMsgs
		if err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("run failed: %v", err))
			failed = attempted
		} else if p := chk.check(r.fp.String()); p != "" {
			res.Problems = append(res.Problems, p)
			failed = attempted
		}
		res.Attempted += attempted
		res.Failed += failed
		return r
	}

	do(false, false, nil)
	var reps []*rep
	for start := time.Now(); len(reps) < minRuns || time.Since(start) < time.Duration(o.seconds)*time.Second; {
		reps = append(reps, do(false, false, nil))
	}
	res.Runs = len(reps)
	msgs := w.msgs(rounds)
	res.Metrics = map[string]stat{}
	perRep := make([]map[string]float64, len(reps))
	for i, r := range reps {
		perRep[i] = endToEndValues(r, msgs)
	}
	for _, m := range endToEnd {
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = perRep[i][m.name]
		}
		res.Metrics[m.name] = summarize(m, vals)
	}
	res.Fingerprint = chk.want
	if w.table2 {
		e := table2Err(reps[0])
		res.Table2ErrPct = &e
	}

	var spans *spanLog
	if o.traced {
		spans = &spanLog{epoch: o.epoch, workload: w.name}
		tr := do(true, false, spans)
		var bare *rep
		if w.sinks {
			bare = do(false, true, nil)
		}
		format, in, out := w.micro(o.seed)
		mb, err := fmtmsgBench(format, in, out, spans)
		if err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("fmtmsg microbenchmark: %v", err))
		}
		res.Layer = layerValues(tr, reps, bare, mb, msgs, spans)
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	res.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	return res, spans
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues are one run's end-to-end metrics, plus its rt_p50_us and
// rt_p99_us. rt_p10_us and rt_p50_us are means over the flows of each
// flow's percentile: a workload's flows differ in cost, and a percentile of
// their pooled samples jumps between flows when one flow's cost shifts.
//
// The end-to-end round trip is the 10th percentile, not the median. The
// host's speed changes in spells, some only a fraction of a second long,
// so a run's round trips can fall in two humps some 30 % apart, and its
// median jumps from one to the other as the share of slow time crosses a
// half. The 10th percentile stays on the fast hump.
func endToEndValues(r *rep, msgs int64) map[string]float64 {
	var p10, p50 float64
	var flows int
	var all []float64
	for _, s := range r.rt {
		if len(s) == 0 {
			continue
		}
		s = slices.Clone(s)
		slices.Sort(s)
		p10 += percentile(s, 0.1)
		p50 += percentile(s, 0.5)
		flows++
		all = append(all, s...)
	}
	slices.Sort(all)
	return map[string]float64{
		"setup_s":          float64(r.buildNs) / 1e9,
		"setup_mb":         float64(r.buildBytes) / 1e6,
		"live_heap_mb":     float64(r.liveHeap) / 1e6,
		"msgs_per_s":       ratio(float64(msgs), float64(r.runNs)/1e9),
		"rt_p10_us":        ratio(p10, float64(flows)),
		"rt_p50_us":        ratio(p50, float64(flows)),
		"rt_p99_us":        percentile(all, 0.99),
		"alloc_kb_per_msg": ratio(float64(r.runBytes)/1e3, float64(msgs)),
		"allocs_per_msg":   ratio(float64(r.runMallocs), float64(msgs)),
	}
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), the middle
// one being the median. A single value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func summarize(m metric, vals []float64) stat {
	q1, med, q3 := quartiles(vals)
	s := slices.Clone(vals)
	slices.Sort(s)
	p := 0.1
	if m.better == "higher" {
		p = 0.9
	}
	return stat{Unit: m.unit, Value: percentile(s, p), Median: med, Q1: q1, Q3: q3, N: len(vals), Values: vals}
}

// table2Err is the mean |simulated - paper| / paper of the one-way 1600 B
// CellPilot latency over types 1-5, in percent. Table II is also the
// calibration data, so this is an in-sample error.
func table2Err(r *rep) float64 {
	var sum float64
	for typ := 1; typ <= 5; typ++ {
		want := paper.PaperTable2[[2]int{typ, 1600}][0]
		sum += abs(r.oneWay[typ].Micros()-want) / want
	}
	return 100 * sum / 5
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// microResult is the fmtmsg microbenchmark on a workload's format.
type microResult struct {
	packNs, unpackNs, allocsPerOp float64
}

// fmtmsgBench times Spec.PackInto and Spec.UnpackFrom on the workload's
// format and payload, reusing one wire buffer, and checks the round trip.
func fmtmsgBench(format string, in, out any, spans *spanLog) (microResult, error) {
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		return microResult{}, err
	}
	inArgs, outArgs := []any{in}, []any{out}
	wire, err := spec.PackInto(nil, inArgs...)
	if err != nil {
		return microResult{}, err
	}
	iters := max(1000, (4<<20)/len(wire))
	loop := func(name string, fn func() error) (time.Duration, error) {
		id := spans.begin(name, 0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		spans.end(id)
		if spans != nil {
			spans.spans[id-1].Calls = iters
		}
		return d, nil
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pack, err := loop("fmtmsg.PackInto", func() (err error) {
		wire, err = spec.PackInto(wire[:0], inArgs...)
		return err
	})
	if err != nil {
		return microResult{}, err
	}
	unpack, err := loop("fmtmsg.UnpackFrom", func() error {
		_, err := spec.UnpackFrom(wire, outArgs...)
		return err
	})
	if err != nil {
		return microResult{}, err
	}
	runtime.ReadMemStats(&m1)
	if !reflect.DeepEqual(in, out) {
		return microResult{}, fmt.Errorf("%s: unpacked payload differs from the packed one", format)
	}
	return microResult{
		packNs:      float64(pack.Nanoseconds()) / float64(iters),
		unpackNs:    float64(unpack.Nanoseconds()) / float64(iters),
		allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(2*iters),
	}, nil
}

// layerValues derives the per-layer metrics. They come from the traced run
// tr, except the gc metrics and the overhead baselines, which are medians
// over the untraced measured runs.
func layerValues(tr *rep, reps []*rep, bare *rep, mb microResult, msgs int64, spans *spanLog) map[string]float64 {
	snap := tr.host()
	subsys := map[string]hostprof.SubsysShare{}
	for _, s := range snap.Subsystems {
		subsys[s.Name] = s
	}
	runNs := float64(tr.runNs)
	selfFrac := func(name string) float64 { return ratio(float64(subsys[name].SampledNs), runNs) }
	med := func(f func(r *rep) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		_, m, _ := quartiles(vals)
		return m
	}
	untracedRunNs := med(func(r *rep) float64 { return float64(r.runNs) })
	p50 := func(names ...string) float64 {
		d := spans.durationsUs(names...)
		slices.Sort(d)
		return percentile(d, 0.5)
	}
	v := map[string]float64{
		"cluster.new_s":            float64(tr.clusterNs) / 1e9,
		"cluster.new_mb":           float64(tr.clusterBytes) / 1e6,
		"core.setup_s":             float64(tr.buildNs-tr.clusterNs) / 1e9,
		"cellbe.mem_used_kb":       float64(tr.memUsed) / 1e3,
		"cellbe.backing_used_frac": ratio(float64(tr.memUsed), float64(tr.clusterBytes)),
		"sim.events":               float64(snap.Events),
		"sim.events_per_msg":       ratio(float64(snap.Events), float64(msgs)),
		"sim.ns_per_event":         ratio(runNs, float64(snap.Events)),
		"sim.queue_depth_max":      float64(snap.MaxHeapDepth),
		"sim.cancel_purged":        float64(snap.CancelPurged),
		"sim.self_frac":            selfFrac("kernel"),
		"op.write_us_p50":          p50("core.Ctx.Write", "core.SPECtx.Write", "core.Ctx.TryWrite", "core.SPECtx.TryWrite", "mpi.Isend"),
		"op.read_us_p50":           p50("core.Ctx.Read", "core.SPECtx.Read", "core.Ctx.TryRead", "core.SPECtx.TryRead", "mpi.Waitall"),
		"copilot.reqs":             float64(tr.copilotReqs),
		"copilot.util_max":         tr.copilotUtilMax,
		"copilot.self_frac":        selfFrac("copilot"),
		"user.self_frac":           selfFrac("user"),
		"fmtmsg.calls":             float64(subsys["fmtmsg"].Calls),
		"fmtmsg.self_frac":         selfFrac("fmtmsg"),
		"fmtmsg.pack_ns":           mb.packNs,
		"fmtmsg.unpack_ns":         mb.unpackNs,
		"fmtmsg.allocs_per_op":     mb.allocsPerOp,
		"mpi.calls":                float64(subsys["mpi"].Calls),
		"mpi.self_frac":            selfFrac("mpi"),
		"net.msgs":                 float64(tr.netMsgs),
		"net.mb":                   float64(tr.netBytes) / 1e6,
		"net.goodput_frac":         ratio(float64(tr.crossPayload), float64(tr.netBytes)),
		"net.link_util_max":        tr.linkUtilMax,
		"interconnect.self_frac":   selfFrac("interconnect"),
		"fault.link_drops":         float64(tr.faults.LinkDrops),
		"fault.retransmits":        float64(tr.faults.Retransmits),
		"fault.mailbox_reposts":    float64(tr.faults.MailboxReposts),
		"fault.op_timeouts":        float64(tr.faults.OpTimeouts),
		"obs.overhead_pct":         0,
		"obs.alloc_mb":             0,
		"rt_p50_us":                med(func(r *rep) float64 { return endToEndValues(r, msgs)["rt_p50_us"] }),
		"rt_p99_us":                med(func(r *rep) float64 { return endToEndValues(r, msgs)["rt_p99_us"] }),
		"gc.cycles":                med(func(r *rep) float64 { return float64(r.gcCycles) }),
		"gc.pause_ms":              med(func(r *rep) float64 { return float64(r.gcPauseNs) / 1e6 }),
		"trace.run_s":              runNs / 1e9,
		"trace.overhead_pct":       100 * (ratio(runNs, untracedRunNs) - 1),
		"trace.coverage_frac":      ratio(float64(snap.SampledNs), runNs),
	}
	if bare != nil {
		v["obs.overhead_pct"] = 100 * (ratio(untracedRunNs, float64(bare.runNs)) - 1)
		v["obs.alloc_mb"] = (med(func(r *rep) float64 { return float64(r.runBytes) }) - float64(bare.runBytes)) / 1e6
	}
	return v
}

//go:embed golden.json
var goldenJSON []byte

// golden pins a workload's virtual fingerprint for one seed and round
// count.
type golden struct {
	Seed        int64  `json:"seed"`
	Rounds      int    `json:"rounds"`
	Fingerprint string `json:"fingerprint"`
}

func loadGolden() map[string]golden {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: embedded golden.json: %v", err)) // a build defect, not an input
	}
	return g
}

// checker compares every run's virtual fingerprint — per-type one-way
// time, final clock, interconnect totals, completed round trips and fault
// counters — with the golden one for the default seed and round count, and
// otherwise with the first run's, so that all runs of one invocation must
// agree.
type checker struct {
	want, source string
}

func newChecker(name string, seed int64, rounds int) *checker {
	if g, ok := loadGolden()[name]; ok && g.Seed == seed && g.Rounds == rounds {
		return &checker{want: g.Fingerprint, source: "golden.json"}
	}
	return &checker{}
}

// check returns "" when fp matches, else a description of the first
// difference.
func (c *checker) check(fp string) string {
	if c.source == "" {
		c.want, c.source = fp, "the first run"
		return ""
	}
	if fp == c.want {
		return ""
	}
	want, got := strings.Split(c.want, "\n"), strings.Split(fp, "\n")
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("virtual outcome differs from %s at line %d: want %q, got %q", c.source, i+1, w, g)
		}
	}
	return "virtual outcome differs from " + c.source
}
