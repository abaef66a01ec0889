package core

import (
	"reflect"
	"strings"
	"testing"

	"cellpilot/internal/trace"
)

func TestTraceRecordsChannelOps(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	rec := trace.NewRecorder(0)
	a.Trace = rec
	var down, up *Channel
	prog := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		buf := make([]byte, 64)
		for i := 0; i < 3; i++ {
			ctx.Read(down, "%64b", buf)
			ctx.Write(up, "%64b", buf)
		}
	}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	down = a.CreateChannel(a.Main(), spe)
	up = a.CreateChannel(spe, a.Main())
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		buf := make([]byte, 64)
		for i := 0; i < 3; i++ {
			ctx.Write(down, "%64b", buf)
			ctx.Read(up, "%64b", buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.ByChannel()
	if len(stats) != 2 {
		t.Fatalf("channels traced = %d", len(stats))
	}
	for _, st := range stats {
		if st.Writes != 3 || st.Reads != 3 || st.Bytes != 3*64 {
			t.Fatalf("channel %d stats = %+v", st.Channel, st)
		}
	}
}

func TestTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(withTrace bool) Time {
		c := newTestCluster(t)
		a := NewApp(c, Options{})
		if withTrace {
			a.Trace = trace.NewRecorder(0)
		}
		peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, arg any) {
			var v int32
			ctx.Read(arg.(*Channel), "%d", &v)
		}, 0, nil)
		ch := a.CreateChannel(a.Main(), peer)
		peer.arg = ch
		if err := a.Run(func(ctx *Ctx) { ctx.Write(ch, "%d", int32(1)) }); err != nil {
			t.Fatal(err)
		}
		return Time(c.K.Now())
	}
	if run(false) != run(true) {
		t.Fatal("tracing changed the virtual timeline")
	}
}

// Time aliases sim.Time for the helper above without another import.
type Time int64

// TestRecorderSharedAcrossApps: Apps that record into one Recorder in turn
// read back the phases and events each would have recorded alone, under
// their own track names, with the second App's transfers numbered after
// the first's, so Spans keeps every App's transfers apart.
func TestRecorderSharedAcrossApps(t *testing.T) {
	run := func(name string, rec *trace.Recorder) {
		a := NewApp(newTestCluster(t), Options{})
		a.Trace = rec
		var down, up *Channel
		spe := a.CreateSPE(&SPEProgram{Name: name, Body: func(ctx *SPECtx) {
			buf := make([]byte, 64)
			ctx.Read(down, "%64b", buf)
			ctx.Write(up, "%64b", buf)
		}}, a.Main(), 0)
		peer := a.CreateProcessOn(1, name, func(ctx *Ctx, _ int, _ any) {
			buf := make([]byte, 64)
			ctx.Read(up, "%64b", buf)
		}, 0, nil)
		down = a.CreateChannel(a.Main(), spe)
		up = a.CreateChannel(spe, peer)
		if err := a.Run(func(ctx *Ctx) {
			ctx.RunSPE(spe, 0, nil)
			ctx.Write(down, "%64b", make([]byte, 64))
		}); err != nil {
			t.Fatal(err)
		}
	}
	alpha, beta, shared := trace.NewRecorder(0), trace.NewRecorder(0), trace.NewRecorder(0)
	run("alpha", alpha)
	run("beta", beta)
	run("alpha", shared)
	run("beta", shared)
	if got, want := len(shared.Spans()), len(alpha.Spans())+len(beta.Spans()); got != want {
		t.Fatalf("shared recorder holds %d spans, want %d (alpha's plus beta's)", got, want)
	}
	// In the shared recorder, beta's transfer ids follow alpha's highest.
	var off int64
	for _, pe := range alpha.Phases() {
		off = max(off, pe.Xfer)
	}
	for _, ev := range alpha.Events() {
		off = max(off, ev.Xfer)
	}
	shift := func(id int64) int64 {
		if id == 0 {
			return 0
		}
		return id + off
	}
	wantPhases := alpha.Phases()
	for _, pe := range beta.Phases() {
		pe.Xfer, pe.Stream = shift(pe.Xfer), shift(pe.Stream)
		wantPhases = append(wantPhases, pe)
	}
	if got := shared.Phases(); !reflect.DeepEqual(got, wantPhases) {
		t.Fatalf("shared recorder phases differ from the two Apps' own:\n got %+v\nwant %+v", got, wantPhases)
	}
	wantEvents := alpha.Events()
	for _, ev := range beta.Events() {
		ev.Xfer = shift(ev.Xfer)
		wantEvents = append(wantEvents, ev)
	}
	if got := shared.Events(); !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("shared recorder events differ from the two Apps' own:\n got %+v\nwant %+v", got, wantEvents)
	}
	procs := map[string]bool{}
	for _, pe := range shared.Phases() {
		procs[pe.Proc] = true
	}
	for _, name := range []string{"alpha#0(spe@node0)", "beta#0(spe@node0)", "alpha(rank1@node1)", "beta(rank1@node1)"} {
		if !procs[name] {
			t.Errorf("no phase recorded under %q; tracks %v", name, procs)
		}
	}
}

// TestRunRefusesTracksPastMaxLabels: an App whose processes and Co-Pilots
// are more than the span log can number fails Run with a usage error, before
// any process starts, instead of panicking in the span sinks. Its 65,534
// processes are configured, never started (about 24 MB, 0.1 s).
func TestRunRefusesTracksPastMaxLabels(t *testing.T) {
	a := NewApp(newTestCluster(t), Options{})
	// PI_MAIN and two Co-Pilots, one per Cell node, are the other tracks.
	for i := 0; i < trace.MaxLabels-2; i++ {
		a.CreateProcessOn(2, "p", func(*Ctx, int, any) {}, i, nil)
	}
	ran := false
	err := a.Run(func(*Ctx) { ran = true })
	if err == nil || ran || !strings.Contains(err.Error(), "PI_StartAll") {
		t.Fatalf("Run with %d tracks: ran %t, err %v; want a PI_StartAll usage error", trace.MaxLabels+1, ran, err)
	}
}
