package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// runFiveTypes runs a 2-Cell-node + 1-Xeon cluster workload that exercises
// every Table I channel type (1: PPE↔remote PPE, 2: PPE↔local SPE,
// 3: PPE↔remote SPE, 4: SPE↔local SPE, 5: SPE↔remote SPE), with the given
// sinks and options, and returns the final virtual time.
func runFiveTypes(t *testing.T, rounds int, s Sinks, opts Options) (*App, sim.Time) {
	t.Helper()
	c := newTestCluster(t)
	a := NewApp(c, opts)
	a.Sinks = s

	var t1d, t1u, t2d, t2u, t3d, t3u, t4ab, t4ba, t5ab, t5ba *Channel
	mkEcho := func(down, up **Channel) *SPEProgram {
		return &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
			buf := make([]int32, 16)
			for r := 0; r < rounds; r++ {
				ctx.Read(*down, "%16d", buf)
				ctx.Write(*up, "%16d", buf)
			}
		}}
	}
	mkInit := func(up, down **Channel) *SPEProgram {
		return &SPEProgram{Name: "init", Body: func(ctx *SPECtx) {
			buf := make([]int32, 16)
			for r := 0; r < rounds; r++ {
				ctx.Write(*up, "%16d", buf)
				ctx.Read(*down, "%16d", buf)
			}
		}}
	}

	spe2 := a.CreateSPE(mkEcho(&t2d, &t2u), a.Main(), 0)
	spe4a := a.CreateSPE(mkInit(&t4ab, &t4ba), a.Main(), 1)
	spe4b := a.CreateSPE(mkEcho(&t4ab, &t4ba), a.Main(), 2)
	parent := a.CreateProcessOn(1, "parent", func(ctx *Ctx, _ int, arg any) {
		for _, sp := range arg.([]*Process) {
			ctx.RunSPE(sp, 0, nil)
		}
		buf := make([]int32, 16)
		for r := 0; r < rounds; r++ {
			ctx.Read(t1d, "%16d", buf)
			ctx.Write(t1u, "%16d", buf)
		}
	}, 0, nil)
	spe5a := a.CreateSPE(mkInit(&t5ab, &t5ba), a.Main(), 3)
	spe5b := a.CreateSPE(mkEcho(&t5ab, &t5ba), parent, 0)
	spe3 := a.CreateSPE(mkEcho(&t3d, &t3u), parent, 1)
	parent.arg = []*Process{spe5b, spe3}

	t1d = a.CreateChannel(a.Main(), parent)
	t1u = a.CreateChannel(parent, a.Main())
	t2d = a.CreateChannel(a.Main(), spe2)
	t2u = a.CreateChannel(spe2, a.Main())
	t3d = a.CreateChannel(a.Main(), spe3)
	t3u = a.CreateChannel(spe3, a.Main())
	t4ab = a.CreateChannel(spe4a, spe4b)
	t4ba = a.CreateChannel(spe4b, spe4a)
	t5ab = a.CreateChannel(spe5a, spe5b)
	t5ba = a.CreateChannel(spe5b, spe5a)

	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe2, 0, nil)
		ctx.RunSPE(spe4a, 0, nil)
		ctx.RunSPE(spe4b, 0, nil)
		ctx.RunSPE(spe5a, 0, nil)
		buf := make([]int32, 16)
		for r := 0; r < rounds; r++ {
			ctx.Write(t2d, "%16d", buf)
			ctx.Read(t2u, "%16d", buf)
			ctx.Write(t1d, "%16d", buf)
			ctx.Read(t1u, "%16d", buf)
			ctx.Write(t3d, "%16d", buf)
			ctx.Read(t3u, "%16d", buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, c.K.Now()
}

// E-OBS1: attaching any observability sink, or all of them, or arming an
// empty fault plan leaves the virtual timeline bit-for-bit identical —
// the zero-cost guarantee. Each arm must end at the bare run's virtual
// time; the checks after the table show each sink actually observed.
func TestObservabilityZeroCost(t *testing.T) {
	rec, prof, tl, fl := trace.NewRecorder(0), profile.New(), timeline.New(0), flowmap.New(0)
	// The host profiler times the simulator itself with the wall clock —
	// strictly outside the virtual timeline. Stride 1 samples every slice,
	// the worst case for any accidental coupling.
	host := hostprof.New(1)
	all := Sinks{trace.NewRecorder(0), NewMeter(), profile.New(), hostprof.New(1), timeline.New(0), flowmap.New(0)}
	// Every operation runs the same bounded path in every arm. An armed
	// but empty fault plan switches on what a fault plan selects (the
	// Co-Pilot's bounded descriptor reads and completion writes, the link
	// tap) without injecting anything; an OpTimeout arms a deadline timer
	// on every operation, and none of them fires.
	inj := fault.NewInjector(fault.Plan{})
	arms := []struct {
		name string
		s    Sinks
		opts Options
	}{
		{"bare", Sinks{}, Options{}},
		{"trace", Sinks{Trace: rec}, Options{}},
		{"meter", Sinks{Metrics: NewMeter()}, Options{}},
		{"profile", Sinks{Profile: prof}, Options{}},
		{"host", Sinks{HostProf: host}, Options{}},
		{"timeline", Sinks{Timeline: tl}, Options{}},
		{"flows", Sinks{Flows: fl}, Options{}},
		{"all", all, Options{}},
		{"empty fault plan", Sinks{}, Options{Faults: inj}},
		{"armed deadline", Sinks{}, Options{OpTimeout: sim.Second}},
	}
	apps := map[string]*App{}
	var bare sim.Time
	for _, arm := range arms {
		a, vt := runFiveTypes(t, 2, arm.s, arm.opts)
		apps[arm.name] = a
		if arm.name == "bare" {
			bare = vt
		} else if vt != bare {
			t.Fatalf("%s: virtual time %v, bare run %v", arm.name, vt, bare)
		}
	}
	bareStats := apps["bare"].Stats()
	// The flow observatory actually observed the run: every one of the
	// seven canonical routes appears (the workload drives all five channel
	// types, types 2 and 3 in both directions), and Stats surfaces the
	// report only when a flowmap is attached.
	flStats := apps["flows"].Stats()
	if flStats.Flows == nil || flStats.Flows.FlowCount == 0 || flStats.Flows.TotalMsgs == 0 {
		t.Fatalf("flowmap recorded nothing: %+v", flStats.Flows)
	}
	if got, want := len(flStats.Flows.Routes), len(flowmap.Routes()); got != want {
		t.Fatalf("flowmap saw %d routes, want all %d: %+v", got, want, flStats.Flows.Routes)
	}
	if bareStats.Flows != nil {
		t.Fatal("Stats().Flows populated without a flowmap attached")
	}
	// The timeline actually observed the run and surfaces through Stats.
	tlStats := apps["timeline"].Stats()
	if tlStats.Timeline == nil || tlStats.Timeline.Windows == 0 || len(tlStats.Timeline.Series) == 0 {
		t.Fatalf("timeline recorded nothing: %+v", tlStats.Timeline)
	}
	if bareStats.Timeline != nil {
		t.Fatal("Stats().Timeline populated without a recorder attached")
	}
	// The host profiler actually observed the run (events, slices, and
	// subsystem attribution for the Co-Pilot/MPI/interconnect/fmtmsg code
	// it hooked) and surfaces through Stats().Host.
	hsnap := host.Snapshot()
	if hsnap.Events == 0 || hsnap.Slices == 0 || hsnap.SampledNs == 0 {
		t.Fatalf("host profiler saw nothing: %+v", hsnap)
	}
	tagged := map[string]bool{}
	for _, sh := range hsnap.Subsystems {
		if sh.SampledNs > 0 {
			tagged[sh.Name] = true
		}
	}
	for _, want := range []string{"copilot", "mpi"} {
		if !tagged[want] {
			t.Errorf("no host time attributed to %s: %+v", want, hsnap.Subsystems)
		}
	}
	if st := apps["host"].Stats(); st.Host == nil || st.Host.Events != hsnap.Events {
		t.Fatalf("Stats().Host missing or inconsistent: %+v", st.Host)
	}
	if bareStats.Host != nil {
		t.Fatal("Stats().Host non-nil without a host profiler attached")
	}
	// The profiler attributed non-compute time for every process and both
	// identically-configured profiled runs agree bucket-for-bucket.
	if len(prof.Procs()) == 0 {
		t.Fatal("profiler saw no processes")
	}
	var fa, fb bytes.Buffer
	if err := prof.FoldedStacks(&fa); err != nil {
		t.Fatal(err)
	}
	if err := all.Profile.FoldedStacks(&fb); err != nil {
		t.Fatal(err)
	}
	if fa.String() != fb.String() {
		t.Fatalf("profiled runs diverged:\n%s\nvs\n%s", fa.String(), fb.String())
	}
	// The always-on flight recorder captured phase events in every run —
	// including the bare one — without perturbing it.
	for _, name := range []string{"bare", "all"} {
		if apps[name].Flight().Total() == 0 {
			t.Fatalf("%s: flight recorder recorded nothing", name)
		}
	}
	if got := inj.Counts; got != (fault.Counts{}) {
		t.Fatalf("empty plan recorded activity: %+v", got)
	}
	// The critical-path analyzer is a pure post-run consumer of the span
	// DAG: with no recorder attached Stats carries no CritPath; with one,
	// Stats().CritPath decomposes every traced transfer exactly — the
	// per-stage attributions sum to the end-to-end virtual latency — and
	// rendering it twice is byte-identical.
	if bareStats.CritPath != nil {
		t.Fatal("Stats.CritPath non-nil without a recorder")
	}
	cp := apps["all"].Stats().CritPath
	if cp == nil || len(cp.Transfers) == 0 {
		t.Fatal("Stats.CritPath missing with a recorder attached")
	}
	for _, tr := range cp.Transfers {
		var sum sim.Time
		for _, sb := range tr.Stages {
			sum += sb.Total()
		}
		if d := tr.Dur() - sum; d != 0 {
			t.Fatalf("transfer #%d: stage attributions off end-to-end latency by %v", tr.ID, d)
		}
	}
	if again := apps["all"].Stats().CritPath; again.Table() != cp.Table() {
		t.Fatalf("critical-path report not deterministic:\n%s\nvs\n%s", cp.Table(), again.Table())
	}
	// Per-channel event times must also be identical across sink sets.
	evA, evB := rec.Events(), all.Trace.Events()
	if len(evA) != len(evB) {
		t.Fatalf("event counts diverged: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, evA[i], evB[i])
		}
	}
}

// E-OBS2: every transfer on an SPE-connected channel type (2–5) becomes a
// span decomposed into mailbox, Co-Pilot, and copy-or-relay phases.
func TestSpansCoverAllSPETypes(t *testing.T) {
	rec := trace.NewRecorder(0)
	_, _ = runFiveTypes(t, 2, Sinks{Trace: rec}, Options{})
	spans := rec.Spans()
	byType := map[int]int{}
	for _, sp := range spans {
		byType[sp.ChanType]++
		if sp.ChanType == 1 {
			continue
		}
		var mbox, copilot, move bool
		for _, ph := range sp.Phases {
			switch ph.Phase {
			case trace.PhaseMailboxReq, trace.PhaseMailboxWait:
				mbox = true
			case trace.PhaseCoPilotWait, trace.PhaseCoPilotService:
				copilot = true
			case trace.PhaseCopy, trace.PhaseRelay, trace.PhaseMPISend, trace.PhaseMPIWait:
				move = true
			}
		}
		if !mbox || !copilot || !move {
			t.Fatalf("span #%d (type%d) missing phases: mailbox=%v copilot=%v move=%v\nphases: %+v",
				sp.ID, sp.ChanType, mbox, copilot, move, sp.Phases)
		}
	}
	for typ := 1; typ <= 5; typ++ {
		// 2 rounds × 2 directions = 4 transfers per type.
		if byType[typ] != 4 {
			t.Fatalf("type%d spans = %d, want 4 (all: %v)", typ, byType[typ], byType)
		}
	}
}

// E-OBS3: the Chrome export is valid trace_event JSON with one named
// track per process and per Co-Pilot.
func TestChromeExportTracks(t *testing.T) {
	rec := trace.NewRecorder(0)
	_, _ = runFiveTypes(t, 2, Sinks{Trace: rec}, Options{})
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
			Cat  string         `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	sliceTids := map[int]bool{}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Args["name"].(string)] = true
			}
		case "X":
			sliceTids[ev.Tid] = true
			cats[ev.Cat] = true
		}
	}
	// 1 PI_MAIN + 1 parent + 6 SPE processes + 2 Co-Pilots have phases.
	var copilots, procs int
	for name := range tracks {
		if strings.Contains(name, "copilot") {
			copilots++
		} else {
			procs++
		}
	}
	if copilots != 2 {
		t.Fatalf("co-pilot tracks = %d, want 2 (tracks: %v)", copilots, tracks)
	}
	if procs != 8 {
		t.Fatalf("process tracks = %d, want 8 (tracks: %v)", procs, tracks)
	}
	for typ := 1; typ <= 5; typ++ {
		want := "type" + string(rune('0'+typ))
		if !cats[want] {
			t.Fatalf("no slices with category %s (cats: %v)", want, cats)
		}
	}
	if len(sliceTids) < 5 {
		t.Fatalf("slices land on only %d tracks", len(sliceTids))
	}
}

// E-OBS4: App.Stats reports per-channel-type histograms and per-process
// blocked-time attribution when a Meter is attached.
func TestStatsMetrics(t *testing.T) {
	meter := NewMeter()
	a, final := runFiveTypes(t, 2, Sinks{Metrics: meter}, Options{})
	st := a.Stats()
	if st.Registry == nil {
		t.Fatal("Stats.Registry nil with a meter attached")
	}
	if len(st.ChannelTypes) != 5 {
		t.Fatalf("ChannelTypes = %d, want all 5: %+v", len(st.ChannelTypes), st.ChannelTypes)
	}
	for _, ct := range st.ChannelTypes {
		// 2 rounds × 2 directions × 2 sides (write op + read op).
		if ct.Ops != 8 {
			t.Fatalf("%s ops = %d, want 8", ct.Type, ct.Ops)
		}
		if ct.Bytes != 8*64 {
			t.Fatalf("%s bytes = %d, want 512", ct.Type, ct.Bytes)
		}
		if ct.LatencyUs.Count() != 8 || ct.LatencyUs.Quantile(0.5) <= 0 {
			t.Fatalf("%s latency histogram: count=%d p50=%v", ct.Type, ct.LatencyUs.Count(), ct.LatencyUs.Quantile(0.5))
		}
		if ct.BandwidthMBps.Count() == 0 || ct.SizeBytes.Count() != 8 {
			t.Fatalf("%s bandwidth/size histograms empty", ct.Type)
		}
	}
	// 1 PI_MAIN + 1 parent + 6 SPE processes.
	if len(st.ProcTimes) != 8 {
		t.Fatalf("ProcTimes = %d, want 8", len(st.ProcTimes))
	}
	var sawMailbox, sawRead bool
	for _, pt := range st.ProcTimes {
		if pt.Total < 0 || pt.Compute < 0 {
			t.Fatalf("%s has negative time split: %+v", pt.Process, pt)
		}
		if pt.Total > final {
			t.Fatalf("%s total %v exceeds run time %v", pt.Process, pt.Total, final)
		}
		if sum := pt.Compute + pt.BlockedRead + pt.BlockedWrite + pt.MailboxWait; sum != pt.Total {
			t.Fatalf("%s split does not add up: %+v", pt.Process, pt)
		}
		if pt.MailboxWait > 0 {
			sawMailbox = true
		}
		if pt.BlockedRead > 0 {
			sawRead = true
		}
	}
	if !sawMailbox || !sawRead {
		t.Fatalf("blocked-time attribution missing: mailbox=%v read=%v", sawMailbox, sawRead)
	}
	// Co-Pilot queue metrics exist for both Cell nodes' service processes.
	var queues int
	for _, name := range st.Registry.HistogramNames() {
		if strings.HasPrefix(name, "copilot/") && strings.HasSuffix(name, "/queue_wait_us") {
			queues++
		}
	}
	if queues != 2 {
		t.Fatalf("copilot queue_wait_us histograms = %d, want 2 (%v)", queues, st.Registry.HistogramNames())
	}
}

// Two identical Apps sharing one Meter each report their own process
// times, while the Meter's per-type counters accumulate across both.
func TestSharedMeterProcTimes(t *testing.T) {
	meter := NewMeter()
	a1, _ := runFiveTypes(t, 2, Sinks{Metrics: meter}, Options{})
	first := a1.Stats()
	a2, _ := runFiveTypes(t, 2, Sinks{Metrics: meter}, Options{})
	second := a2.Stats()
	if len(first.ProcTimes) == 0 || !reflect.DeepEqual(first.ProcTimes, second.ProcTimes) {
		t.Fatalf("ProcTimes differ between identical Apps sharing a Meter:\nfirst:  %+v\nsecond: %+v", first.ProcTimes, second.ProcTimes)
	}
	for _, pt := range second.ProcTimes {
		if pt.Compute < 0 {
			t.Errorf("%s reads negative compute: %+v", pt.Process, pt)
		}
	}
	for i, ct := range second.ChannelTypes {
		if was := first.ChannelTypes[i]; ct.Ops != 2*was.Ops || ct.Bytes != 2*was.Bytes {
			t.Errorf("%s after two runs: %d ops, %d bytes; want twice %d ops, %d bytes", ct.Type, ct.Ops, ct.Bytes, was.Ops, was.Bytes)
		}
	}
}

// E-OBS5: Stats.String renders the metric sections; without a meter the
// report stays in its seed shape.
func TestStatsStringMetricsSections(t *testing.T) {
	meter := NewMeter()
	a, _ := runFiveTypes(t, 2, Sinks{Metrics: meter}, Options{})
	s := a.Stats().String()
	for _, want := range []string{"type1:", "type5:", "latency p50=", "bandwidth p50=", "compute", "mailbox"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Stats.String missing %q:\n%s", want, s)
		}
	}
	b, _ := runFiveTypes(t, 2, Sinks{}, Options{})
	if s := b.Stats().String(); strings.Contains(s, "latency p50=") || strings.Contains(s, "compute") {
		t.Fatalf("Stats.String shows metric sections without a meter:\n%s", s)
	}
}

// E-OBS6: ConfigDump lists every process, channel and bundle of the
// configured application.
func TestConfigDumpListsConfiguration(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, arg any) {
		var v int32
		ctx.Read(arg.(*Channel), "%d", &v)
	}, 0, nil)
	spe := a.CreateSPE(&SPEProgram{Name: "idle", Body: func(ctx *SPECtx) {}}, a.Main(), 0)
	_ = spe
	ch := a.CreateChannel(a.Main(), peer)
	peer.arg = ch
	dump := a.ConfigDump()
	for _, want := range []string{"processes (3):", "PI_MAIN", "peer", "idle#0", "channels (1):", "bundles (0):"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("ConfigDump missing %q:\n%s", want, dump)
		}
	}
	if err := a.Run(func(ctx *Ctx) { ctx.Write(ch, "%d", int32(7)) }); err != nil {
		t.Fatal(err)
	}
}

// E-OBS7: the flight recorder's tail rides on fault diagnostics — a
// degraded run's FaultSummary carries the phase events that led up to the
// failure, and each operation fault carries its own tail.
func TestFaultDiagnosticsCarryFlightTail(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 300 * time100us, Kind: fault.KillSPE, Proc: "echo#0"},
	}})
	c := newTestCluster(t)
	a := NewApp(c, Options{Faults: inj, OpTimeout: 50 * sim.Millisecond})
	var down, up *Channel
	victim := a.CreateSPE(&SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		buf := make([]int32, 16)
		for r := 0; r < 1000; r++ {
			ctx.Read(down, "%16d", buf)
			ctx.Write(up, "%16d", buf)
		}
	}}, a.Main(), 0)
	down = a.CreateChannel(a.Main(), victim)
	up = a.CreateChannel(victim, a.Main())

	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(victim, 0, nil)
		buf := make([]int32, 16)
		for r := 0; r < 1000; r++ {
			ctx.Write(down, "%16d", buf)
			ctx.Read(up, "%16d", buf)
		}
	})
	if err == nil {
		t.Fatal("killed-SPE run returned nil")
	}
	sum, ok := err.(*FaultSummary)
	if !ok {
		t.Fatalf("Run error %T is not a *FaultSummary: %v", err, err)
	}
	if len(sum.FlightTail) == 0 {
		t.Fatal("FaultSummary.FlightTail is empty")
	}
	if !strings.Contains(err.Error(), "flight recorder tail") {
		t.Errorf("summary text lacks the flight tail:\n%v", err)
	}
	tailFaults := 0
	for _, cf := range sum.Faults {
		if len(cf.Tail) > 0 {
			tailFaults++
			if !strings.Contains(cf.Error(), "phase event(s) before the fault") {
				t.Errorf("fault text lacks its tail:\n%v", cf)
			}
		}
	}
	if tailFaults == 0 {
		t.Fatalf("no operation fault carried a flight tail: %v", sum.Faults)
	}
}

const time100us = 100 * sim.Microsecond

// E-OBS8: attaching observability sinks after Run has started is a
// configuration error, and late writes to the public fields are inert —
// Run records through the snapshot taken when it started.
func TestAttachAfterRunRejected(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	// In the configuration phase the checked setters succeed.
	rec := trace.NewRecorder(0)
	if err := a.SetTrace(rec); err != nil {
		t.Fatalf("SetTrace in config phase: %v", err)
	}
	if err := a.SetTrace(nil); err != nil {
		t.Fatalf("SetTrace(nil) in config phase: %v", err)
	}
	var ch *Channel
	peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, _ any) {
		var v int32
		ctx.Read(ch, "%d", &v)
		// Execution phase: every checked setter must refuse.
		if err := a.SetTrace(trace.NewRecorder(0)); err == nil {
			t.Error("SetTrace during Run succeeded")
		}
		if err := a.SetMetrics(NewMeter()); err == nil {
			t.Error("SetMetrics during Run succeeded")
		}
		if err := a.SetProfile(profile.New()); err == nil {
			t.Error("SetProfile during Run succeeded")
		}
	}, 0, nil)
	ch = a.CreateChannel(a.Main(), peer)

	lateRec := trace.NewRecorder(0)
	lateMeter := NewMeter()
	err := a.Run(func(ctx *Ctx) {
		// Late direct field writes are inert: the run records through the
		// snapshot bound at Run entry (nil sinks here).
		a.Trace = lateRec
		a.Metrics = lateMeter
		ctx.Write(ch, "%d", int32(7))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(lateRec.Events()); got != 0 {
		t.Errorf("late-attached recorder captured %d events, want 0", got)
	}
	if got := len(lateMeter.Registry().CounterNames()); got != 0 {
		t.Errorf("late-attached meter has counters %v, want none", lateMeter.Registry().CounterNames())
	}
	// After Run the setters still refuse (the run is over; attach to a new
	// App instead).
	if err := a.SetMetrics(NewMeter()); err == nil {
		t.Error("SetMetrics after Run succeeded")
	}
}

// E-OBS9: congestion telemetry — queue-depth watermarks, Co-Pilot
// utilization and link saturation — lands in Stats and, as gauges, in the
// metric registry.
func TestCongestionTelemetry(t *testing.T) {
	meter := NewMeter()
	a, vt := runFiveTypes(t, 3, Sinks{Metrics: meter}, Options{})
	st := a.Stats()
	if vt <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	busy := 0
	for _, cp := range st.CoPilots {
		if cp.Busy > 0 {
			busy++
			if cp.Utilization <= 0 || cp.Utilization > 1 {
				t.Errorf("copilot@node%d utilization %v out of (0,1]", cp.Node, cp.Utilization)
			}
		}
	}
	if busy == 0 {
		t.Fatal("no Co-Pilot accumulated busy time")
	}
	if len(st.Links) == 0 {
		t.Fatal("no link stats")
	}
	saturated := 0
	for _, lu := range st.Links {
		if lu.Busy > 0 {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("no link accumulated busy time despite remote transfers")
	}
	outHigh := 0
	for _, spe := range st.SPEs {
		if spe.OutMboxHighWater > 0 {
			outHigh++
		}
	}
	if outHigh == 0 {
		t.Fatal("no SPE outbound mailbox ever held a word")
	}
	types := map[ChannelType]bool{}
	for _, ct := range st.ChannelTypes {
		types[ct.Type] = true
	}
	for typ := Type1; typ <= Type5; typ++ {
		if !types[typ] {
			t.Errorf("no metrics for channel %v", typ)
		}
	}
	// The same telemetry is published as gauges.
	gauges := st.Registry.GaugeNames()
	wantPrefixes := []string{"copilot/", "link/", "spe/"}
	for _, p := range wantPrefixes {
		found := false
		for _, g := range gauges {
			if strings.HasPrefix(g, p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* gauge published; gauges: %v", p, gauges)
		}
	}
}
