package core

import (
	"reflect"
	"strings"
	"testing"

	"cellpilot/internal/fault"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
)

// The attached timeline records every series family the sampler covers
// and surfaces through Stats().Timeline.
func TestTimelineRecordsRun(t *testing.T) {
	tl := timeline.New(20 * sim.Microsecond)
	app, vt := runFiveTypes(t, 2, sinks{meter: NewMeter(), timeline: tl}, Options{})
	rep := app.Stats().Timeline
	if rep == nil {
		t.Fatal("Stats().Timeline nil with a recorder attached")
	}
	if rep.Windows == 0 || rep.End != vt {
		t.Fatalf("report windows=%d end=%v, want >0 windows ending at %v", rep.Windows, rep.End, vt)
	}
	names := tl.SeriesNames()
	wantPrefixes := []string{"backlog/total", "net/bytes", "copilot/", "link/", "mailbox/", "backlog/type"}
	for _, want := range wantPrefixes {
		found := false
		for _, n := range names {
			if strings.HasPrefix(n, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series with prefix %q (have %v)", want, names)
		}
	}
	// Traffic flowed, so bytes and busy time must be non-zero somewhere.
	bytes, ok := tl.Range("net/bytes", 0, 0)
	if !ok {
		t.Fatal("net/bytes series missing")
	}
	sum := 0.0
	for _, v := range bytes {
		sum += v
	}
	if sum <= 0 {
		t.Errorf("net/bytes windows sum to %v, want > 0", sum)
	}
	// Series names are sorted — the deterministic output order.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("series names not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

// Same seed, same workload → byte-identical timeline fingerprints.
func TestTimelineDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		tl := timeline.New(20 * sim.Microsecond)
		runFiveTypes(t, 2, sinks{meter: NewMeter(), timeline: tl}, Options{})
		return tl.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("timeline fingerprints diverged across identical runs:\n%s\nvs\n%s", a, b)
	}
}

// The backlog/* series come from core's channel state, not from the Meter:
// a timeline alone records the same backlog windows as a timeline with a
// Meter, so attaching one sink does not change another sink's output.
func TestTimelineBacklogWithoutMeter(t *testing.T) {
	backlog := func(meter *Meter) map[string][]float64 {
		tl := timeline.New(20 * sim.Microsecond)
		runFiveTypes(t, 2, sinks{meter: meter, timeline: tl}, Options{})
		out := map[string][]float64{}
		for _, name := range tl.SeriesNames() {
			if strings.HasPrefix(name, "backlog/") {
				out[name], _ = tl.Range(name, 0, 0)
			}
		}
		return out
	}
	alone, metered := backlog(nil), backlog(NewMeter())
	// backlog/total plus one series per channel type.
	if len(alone) != 6 {
		t.Fatalf("timeline without a Meter has %d backlog series, want 6: %v", len(alone), alone)
	}
	peak := 0.0
	for _, v := range alone["backlog/total"] {
		peak = max(peak, v)
	}
	if peak == 0 {
		t.Fatal("backlog/total never rose above zero")
	}
	if !reflect.DeepEqual(alone, metered) {
		t.Fatalf("backlog series differ with a Meter attached:\nalone:   %v\nmetered: %v", alone, metered)
	}
}

// Injected faults are marked on the timeline, and the fault counters show
// up as series whose windows record the injection.
func TestTimelineNotesFaults(t *testing.T) {
	plan := fault.Plan{Seed: 1, Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.KillSPE, Proc: "victim#0"},
	}}
	a, _, run := buildKillSPEApp(t, plan)
	tl := timeline.New(100 * sim.Microsecond)
	if err := a.SetTimeline(tl); err != nil {
		t.Fatalf("SetTimeline: %v", err)
	}
	run()
	marks := tl.Faults()
	if len(marks) != 1 {
		t.Fatalf("fault marks = %+v, want exactly one", marks)
	}
	if marks[0].Label != "kill-spe(victim#0)" || marks[0].At != sim.Millisecond {
		t.Errorf("mark = %+v, want kill-spe(victim#0) at 1ms", marks[0])
	}
	killed, ok := tl.Range("fault/procs_killed", 0, 0)
	if !ok {
		t.Fatal("fault/procs_killed series missing")
	}
	total := 0.0
	for _, v := range killed {
		total += v
	}
	if total != 1 {
		t.Errorf("fault/procs_killed windows sum to %v, want 1", total)
	}
	// The kill lands in the window containing t=1ms, not earlier.
	pre, _ := tl.Range("fault/procs_killed", 0, sim.Millisecond)
	for i, v := range pre {
		if v != 0 {
			t.Errorf("procs_killed window %d (before the fault) = %v", i, v)
		}
	}
}

// Options.FlightDepth sizes the always-on flight recorder ring.
func TestFlightDepthOption(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{FlightDepth: 8})
	if got := a.flight.Depth(); got != 8 {
		t.Fatalf("flight depth = %d, want 8", got)
	}
	c2 := newTestCluster(t)
	if got := NewApp(c2, Options{}).flight.Depth(); got != 256 {
		t.Fatalf("default flight depth = %d, want 256", got)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(error).Error(), "FlightDepth") {
			t.Fatalf("negative FlightDepth panic = %v, want usage error naming FlightDepth", r)
		}
	}()
	NewApp(newTestCluster(t), Options{FlightDepth: -1})
}

// SetTimeline is a checked setter: refused once Run has started.
func TestSetTimelineAfterRunRejected(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	if err := a.SetTimeline(timeline.New(0)); err != nil {
		t.Fatalf("SetTimeline in config phase: %v", err)
	}
	if err := a.SetTimeline(nil); err != nil {
		t.Fatalf("SetTimeline(nil) in config phase: %v", err)
	}
	err := a.Run(func(ctx *Ctx) {
		if err := a.SetTimeline(timeline.New(0)); err == nil {
			t.Error("SetTimeline during Run succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
