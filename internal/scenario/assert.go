package scenario

import (
	"fmt"
	"strings"

	"cellpilot/internal/critpath"
	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/sim"
)

// Violation is one failed assertion. Message names the violated bound and
// the measured value; for chaos-bound checks it carries the blame/fault
// context needed to diagnose the regression without re-running.
type Violation struct {
	// Index is the assertion's position in the scenario.
	Index int
	// Kind echoes the assertion kind.
	Kind string
	// Message is the human diagnosis (may span lines).
	Message string
}

func (v Violation) String() string {
	return fmt.Sprintf("assertions[%d] (%s): %s", v.Index, v.Kind, v.Message)
}

// Check evaluates every assertion against a run's outcome. An empty slice
// means the scenario passed.
func Check(out *Outcome) []Violation {
	var vs []Violation
	for i, a := range out.Scenario.Assertions {
		for _, msg := range checkOne(out, a) {
			vs = append(vs, Violation{Index: i, Kind: a.Kind, Message: msg})
		}
	}
	return vs
}

func checkOne(out *Outcome, a Assertion) []string {
	switch a.Kind {
	case AssertLatency:
		pt, msg := pingType(out, a.Type)
		if msg != "" {
			return []string{msg}
		}
		var vs []string
		oneWay := float64(pt.OneWay) / 1e3
		if a.MaxOneWayUs > 0 && oneWay > a.MaxOneWayUs {
			vs = append(vs, fmt.Sprintf("type %d one-way latency %.2fµs exceeds bound %.2fµs", a.Type, oneWay, a.MaxOneWayUs))
		}
		p99 := float64(pt.P99) / 1e3
		if a.MaxP99Us > 0 && p99 > a.MaxP99Us {
			vs = append(vs, fmt.Sprintf("type %d p99 one-way latency %.2fµs exceeds bound %.2fµs", a.Type, p99, a.MaxP99Us))
		}
		return vs
	case AssertBandwidth:
		pt, msg := pingType(out, a.Type)
		if msg != "" {
			return []string{msg}
		}
		if pt.MBps < a.MinMBps {
			return []string{fmt.Sprintf("type %d bandwidth %.2f MB/s below bound %.2f MB/s", a.Type, pt.MBps, a.MinMBps)}
		}
	case AssertSpeedup:
		return checkSpeedup(out, a)
	case AssertCompleted:
		return eachChaos(out, a, func(r ChaosRun) []string {
			want := a.MinCompleted
			if a.Full {
				want = out.Chaos.Reps
			}
			got := r.Result.Completed[a.Type]
			if got < want {
				return []string{fmt.Sprintf("seed %d: type %d completed %d/%d round trips (bound %d)%s",
					r.Seed, a.Type, got, out.Chaos.Reps, want, chaosContext(r))}
			}
			return nil
		})
	case AssertFaults:
		return checkFaults(out, a)
	case AssertDegraded:
		return eachChaos(out, a, func(r ChaosRun) []string {
			degraded := r.Result.RunErr != ""
			if degraded != a.Want {
				if a.Want {
					return []string{fmt.Sprintf("seed %d: expected a degraded run, but it finished clean", r.Seed)}
				}
				return []string{fmt.Sprintf("seed %d: expected a clean run, but it degraded: %s%s",
					r.Seed, r.Result.RunErr, chaosContext(r))}
			}
			if a.Want && a.ErrorContains != "" && !strings.Contains(r.Result.RunErr, a.ErrorContains) {
				return []string{fmt.Sprintf("seed %d: degradation error %q does not mention %q",
					r.Seed, r.Result.RunErr, a.ErrorContains)}
			}
			return nil
		})
	case AssertBlame:
		return eachChaos(out, a, func(r ChaosRun) []string {
			return checkBlame(r, a)
		})
	case AssertContention:
		return eachChaos(out, a, func(r ChaosRun) []string {
			return checkContention(r, a)
		})
	case AssertDeterminism:
		if out.DeterminismDiff != "" {
			return []string{fmt.Sprintf("outcome is not deterministic across %d runs: %s",
				out.DeterminismRuns, out.DeterminismDiff)}
		}
	case AssertVirtualTime:
		return eachChaos(out, a, func(r ChaosRun) []string {
			if r.Result.VirtualTime > a.MaxVirtual {
				return []string{fmt.Sprintf("seed %d: run took %s of virtual time, bound %s — degradation is not completing promptly%s",
					r.Seed, r.Result.VirtualTime, a.MaxVirtual, chaosContext(r))}
			}
			return nil
		})
	case AssertWindow:
		return eachChaos(out, a, func(r ChaosRun) []string {
			return checkWindow(r, a)
		})
	case AssertPeakBacklog:
		return eachChaos(out, a, func(r ChaosRun) []string {
			return checkPeakBacklog(r, a)
		})
	case AssertRecoveryWithin:
		return eachChaos(out, a, func(r ChaosRun) []string {
			return checkRecovery(r, a)
		})
	case AssertFlow:
		return eachChaos(out, a, func(r ChaosRun) []string {
			return checkFlow(r, a)
		})
	}
	return nil
}

// checkFlow bounds a route's delivered payload bytes and/or pins a shared
// resource's dominant flow to that route. Failure messages carry the
// per-route aggregates so a shifted traffic pattern diagnoses itself.
func checkFlow(r ChaosRun, a Assertion) []string {
	fl := r.Flows
	if fl == nil {
		return []string{fmt.Sprintf("seed %d: run recorded no flow observatory", r.Seed)}
	}
	var vs []string
	if a.Route != "" && (a.MinBytes > 0 || a.MaxBytes > 0) {
		got := fl.RouteBytes(a.Route)
		if a.MinBytes > 0 && got < a.MinBytes {
			vs = append(vs, fmt.Sprintf("seed %d: route %s delivered %d B, bound ≥ %d B%s",
				r.Seed, a.Route, got, a.MinBytes, flowContext(fl)))
		}
		if a.MaxBytes > 0 && got > a.MaxBytes {
			vs = append(vs, fmt.Sprintf("seed %d: route %s delivered %d B, bound ≤ %d B%s",
				r.Seed, a.Route, got, a.MaxBytes, flowContext(fl)))
		}
	}
	if a.TopOf != "" {
		rep := fl.Report(0)
		var rs *flowmap.ResourceStat
		var names []string
		for i := range rep.Resources {
			names = append(names, rep.Resources[i].Name)
			if rep.Resources[i].Name == a.TopOf {
				rs = &rep.Resources[i]
			}
		}
		switch {
		case rs == nil:
			vs = append(vs, fmt.Sprintf("seed %d: no flow crossed resource %q (resources seen: %s)",
				r.Seed, a.TopOf, strings.Join(names, ", ")))
		case len(rs.Top) == 0:
			vs = append(vs, fmt.Sprintf("seed %d: resource %q carried no attributed flow", r.Seed, a.TopOf))
		case rs.Top[0].Route != a.Route:
			top := rs.Top[0]
			vs = append(vs, fmt.Sprintf("seed %d: %q's top contributor is %s -> %s via %s (%d B), want route %s%s",
				r.Seed, a.TopOf, top.Src, top.Dst, top.Route, top.Bytes, a.Route, flowContext(fl)))
		}
	}
	return vs
}

// flowContext renders the per-route byte aggregates for a failure message.
func flowContext(fl *flowmap.Map) string {
	var b strings.Builder
	for _, route := range fl.RouteNames() {
		fmt.Fprintf(&b, "\n    route %-32s %d B", route, fl.RouteBytes(route))
	}
	return b.String()
}

// checkWindow bounds every window of a series over a virtual-time range
// (max) and/or requires the series to reach a level somewhere in the range
// (min_peak).
func checkWindow(r ChaosRun, a Assertion) []string {
	tl := r.Timeline
	if tl == nil {
		return []string{fmt.Sprintf("seed %d: run recorded no timeline", r.Seed)}
	}
	vals, ok := tl.Range(a.Series, a.From, a.To)
	if !ok {
		return []string{fmt.Sprintf("seed %d: timeline has no series %q (have: %s)",
			r.Seed, a.Series, strings.Join(tl.SeriesNames(), ", "))}
	}
	rangeEnd := a.To
	if rangeEnd == 0 {
		rangeEnd = tl.End()
	}
	var vs []string
	peak, peakAt := 0.0, sim.Time(0)
	w := tl.Window()
	base := int(a.From / w)
	for i, v := range vals {
		if v > peak || i == 0 {
			peak, peakAt = v, sim.Time(base+i)*w
		}
		if a.MaxValue > 0 && v > a.MaxValue {
			vs = append(vs, fmt.Sprintf("seed %d: %s = %g in window [%s, %s) exceeds bound %g",
				r.Seed, a.Series, v, sim.Time(base+i)*w, sim.Time(base+i+1)*w, a.MaxValue))
		}
	}
	if a.MinPeak > 0 && peak < a.MinPeak {
		vs = append(vs, fmt.Sprintf("seed %d: %s peaked at %g (window starting %s) over [%s, %s), bound ≥ %g",
			r.Seed, a.Series, peak, peakAt, a.From, rangeEnd, a.MinPeak))
	}
	return vs
}

// checkPeakBacklog bounds the whole-run peak of a backlog series.
func checkPeakBacklog(r ChaosRun, a Assertion) []string {
	tl := r.Timeline
	if tl == nil {
		return []string{fmt.Sprintf("seed %d: run recorded no timeline", r.Seed)}
	}
	name := "backlog/total"
	if a.Type > 0 {
		name = fmt.Sprintf("backlog/type%d", a.Type)
	}
	vals, ok := tl.Range(name, 0, 0)
	if !ok {
		return []string{fmt.Sprintf("seed %d: timeline has no series %q", r.Seed, name)}
	}
	peak, peakAt := 0.0, sim.Time(0)
	for i, v := range vals {
		if v > peak {
			peak, peakAt = v, sim.Time(i)*tl.Window()
		}
	}
	var vs []string
	if peak > a.MaxBacklog {
		vs = append(vs, fmt.Sprintf("seed %d: %s peaked at %g (window starting %s), bound ≤ %g",
			r.Seed, name, peak, peakAt, a.MaxBacklog))
	}
	if a.MinBacklog > 0 && peak < a.MinBacklog {
		vs = append(vs, fmt.Sprintf("seed %d: %s peaked at %g, bound ≥ %g — the workload never queued",
			r.Seed, name, peak, a.MinBacklog))
	}
	return vs
}

// checkRecovery bounds the settle time of a series after every injected
// fault the timeline marked.
func checkRecovery(r ChaosRun, a Assertion) []string {
	tl := r.Timeline
	if tl == nil {
		return []string{fmt.Sprintf("seed %d: run recorded no timeline", r.Seed)}
	}
	series := a.Series
	if series == "" {
		series = "backlog/total"
	}
	if _, ok := tl.Range(series, 0, 0); !ok {
		return []string{fmt.Sprintf("seed %d: timeline has no series %q (have: %s)",
			r.Seed, series, strings.Join(tl.SeriesNames(), ", "))}
	}
	marks := tl.Faults()
	if len(marks) == 0 {
		return []string{fmt.Sprintf("seed %d: the run injected no fault the timeline marked — nothing to recover from", r.Seed)}
	}
	var vs []string
	for _, f := range marks {
		d, ok := tl.Recovery(series, f.At)
		if !ok {
			vs = append(vs, fmt.Sprintf("seed %d: %s never recovered after %s at %s (bound %s)%s",
				r.Seed, series, f.Label, f.At, a.MaxRecovery, chaosContext(r)))
			continue
		}
		if d > a.MaxRecovery {
			vs = append(vs, fmt.Sprintf("seed %d: %s took %s to recover after %s at %s, bound %s%s",
				r.Seed, series, d, f.Label, f.At, a.MaxRecovery, chaosContext(r)))
		}
	}
	return vs
}

// pingType finds a channel type's pingpong measurement.
func pingType(out *Outcome, typ int) (PingPongType, string) {
	if out.PingPong == nil {
		return PingPongType{}, "no pingpong workload ran"
	}
	for _, pt := range out.PingPong.Types {
		if pt.Type == typ {
			return pt, ""
		}
	}
	return PingPongType{}, fmt.Sprintf("pingpong did not measure channel type %d (types: %v)", typ, pingTypes(out))
}

func pingTypes(out *Outcome) []int {
	var ts []int
	for _, pt := range out.PingPong.Types {
		ts = append(ts, pt.Type)
	}
	return ts
}

func checkSpeedup(out *Outcome, a Assertion) []string {
	if out.Sweep == nil {
		return []string{"no sizesweep workload ran"}
	}
	var base, chunked sim.Time
	found := false
	for _, pt := range out.Sweep {
		if pt.Type != a.Type || pt.Bytes != a.Bytes {
			continue
		}
		found = true
		if pt.Chunked {
			chunked = pt.OneWayP50
		} else {
			base = pt.OneWayP50
		}
	}
	if !found {
		return []string{fmt.Sprintf("sweep has no (type %d, %d B) point", a.Type, a.Bytes)}
	}
	if chunked == 0 {
		return []string{fmt.Sprintf("sweep (type %d, %d B) has no chunked arm", a.Type, a.Bytes)}
	}
	ratio := float64(base) / float64(chunked)
	if ratio < a.MinRatio {
		return []string{fmt.Sprintf("type %d @ %d B chunked speedup %.2fx below bound %.2fx (baseline p50 %s, chunked p50 %s)",
			a.Type, a.Bytes, ratio, a.MinRatio, base, chunked)}
	}
	return nil
}

// eachChaos applies a per-run check across the chaos runs matching the
// assertion's seed filter (0 = every seed).
func eachChaos(out *Outcome, a Assertion, check func(ChaosRun) []string) []string {
	if out.Chaos == nil {
		return []string{"no chaos workload ran"}
	}
	var vs []string
	for _, r := range out.Chaos.Runs {
		if a.Seed != 0 && r.Seed != a.Seed {
			continue
		}
		vs = append(vs, check(r)...)
	}
	return vs
}

// checkFaults bounds fault counters summed across the matching runs, so a
// seed sweep is judged on aggregate behavior while a.Seed pins one run.
func checkFaults(out *Outcome, a Assertion) []string {
	if out.Chaos == nil {
		return []string{"no chaos workload ran"}
	}
	sum := fault.Counts{}
	var seeds []int64
	for _, r := range out.Chaos.Runs {
		if a.Seed != 0 && r.Seed != a.Seed {
			continue
		}
		seeds = append(seeds, r.Seed)
		addCounts(&sum, r.Result.Counts)
	}
	var vs []string
	for _, name := range counterNames() {
		lo, hasLo := a.Min[name]
		hi, hasHi := a.Max[name]
		if !hasLo && !hasHi {
			continue
		}
		got, _ := counterValue(&sum, name)
		if hasLo && got < lo {
			vs = append(vs, fmt.Sprintf("counter %s = %d below bound %d (seeds %v)", name, got, lo, seeds))
		}
		if hasHi && got > hi {
			vs = append(vs, fmt.Sprintf("counter %s = %d above bound %d (seeds %v)", name, got, hi, seeds))
		}
	}
	return vs
}

func addCounts(dst *fault.Counts, c fault.Counts) {
	for _, fc := range fault.Counters {
		*fc.Of(dst) += *fc.Of(&c)
	}
}

// checkBlame asserts that a stage owns a channel type's critical path.
// The failure message carries the full per-stage blame decomposition —
// the diff a regression hunt starts from.
func checkBlame(r ChaosRun, a Assertion) []string {
	tb, msg := blameType(r, a.Type)
	if msg != "" {
		return []string{msg}
	}
	top, topShare := topStage(tb)
	share := stageShare(tb, a.Stage)
	ok := top == a.Stage
	if a.MinShare > 0 {
		ok = ok && share >= a.MinShare
	}
	if ok {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: type %d critical path is owned by %s (%.0f%%), want %s",
		r.Seed, a.Type, top, topShare*100, a.Stage)
	if a.MinShare > 0 {
		fmt.Fprintf(&b, " with share ≥ %.0f%% (got %.0f%%)", a.MinShare*100, share*100)
	}
	fmt.Fprintf(&b, "\n    blame for type %d (%d transfers, %s total):", tb.ChanType, tb.Transfers, tb.Total)
	for _, sb := range tb.Stages {
		fmt.Fprintf(&b, "\n      %-10s service %-12s queue %-12s (%.0f%% of path)",
			critpath.StageName(sb.Phase), sb.Service, sb.Queue,
			float64(sb.Total())/float64(tb.Total)*100)
	}
	return []string{b.String()}
}

func blameType(r ChaosRun, typ int) (critpath.TypeBlame, string) {
	rep := r.Stats.CritPath
	if rep == nil {
		return critpath.TypeBlame{}, fmt.Sprintf("seed %d: run produced no critical-path report", r.Seed)
	}
	for _, tb := range rep.Types {
		if tb.ChanType == typ {
			return tb, ""
		}
	}
	return critpath.TypeBlame{}, fmt.Sprintf("seed %d: no type-%d transfers reached the critical-path analyzer", r.Seed, typ)
}

func checkContention(r ChaosRun, a Assertion) []string {
	rep := r.Stats.CritPath
	if rep == nil {
		return []string{fmt.Sprintf("seed %d: run produced no critical-path report", r.Seed)}
	}
	var matching []critpath.Pair
	for _, p := range rep.Pairs {
		if a.ResourcePrefix == "" || strings.HasPrefix(p.Resource, a.ResourcePrefix) {
			matching = append(matching, p)
		}
	}
	if len(matching) >= a.MinPairs {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d victim/aggressor pair(s)", r.Seed, len(matching))
	if a.ResourcePrefix != "" {
		fmt.Fprintf(&b, " on %s*", a.ResourcePrefix)
	}
	fmt.Fprintf(&b, ", bound ≥ %d", a.MinPairs)
	for _, p := range rep.Pairs {
		fmt.Fprintf(&b, "\n      pair resource=%s victim=%d aggressor=%d blocked=%s",
			p.Resource, p.Victim, p.Aggressor, p.Blocked)
	}
	return []string{b.String()}
}

// chaosContext renders a run's fault evidence for a failure message: the
// degradation error, killed processes, headline counters and the tail of
// the fault log.
func chaosContext(r ChaosRun) string {
	var b strings.Builder
	if r.Result.RunErr != "" {
		fmt.Fprintf(&b, "\n    run error: %s", r.Result.RunErr)
	}
	if len(r.Result.Killed) > 0 {
		fmt.Fprintf(&b, "\n    killed: %s", strings.Join(r.Result.Killed, ", "))
	}
	fmt.Fprintf(&b, "\n    counts: %+v", r.Result.Counts)
	log := r.Result.FaultLog
	if len(log) > 5 {
		log = log[len(log)-5:]
	}
	for _, l := range log {
		fmt.Fprintf(&b, "\n    fault log: %s", l)
	}
	return b.String()
}
