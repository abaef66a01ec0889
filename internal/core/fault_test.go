package core

import (
	"errors"
	"strings"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/fault"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
)

// TestTryReadTimeoutThenRecover: a Try* deadline expires on a slow (not
// dead) peer; the operation returns a structured ChannelFault, and the
// abandoned receive leaves the channel usable — a later blocking Read
// still gets the message.
func TestTryReadTimeoutThenRecover(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var ch *Channel
	writer := a.CreateProcessOn(1, "writer", func(ctx *Ctx, _ int, arg any) {
		ctx.P.Advance(2 * sim.Millisecond) // slow, not dead
		ctx.Write(arg.(*Channel), "%d", int32(42))
	}, 0, nil)
	ch = a.CreateChannel(writer, a.Main())
	writer.arg = ch

	var cf *ChannelFault
	var got int32
	err := a.Run(func(ctx *Ctx) {
		var v int32
		terr := ctx.TryRead(ch, 200*sim.Microsecond, "%d", &v)
		if terr == nil {
			t.Error("TryRead succeeded before the writer wrote")
		}
		if !errors.As(terr, &cf) {
			t.Errorf("TryRead error %T is not a *ChannelFault", terr)
		}
		ctx.Read(ch, "%d", &got)
	})
	if err != nil {
		t.Fatalf("soft timeout must not degrade the run: %v", err)
	}
	if got != 42 {
		t.Fatalf("recovery Read got %d, want 42", got)
	}
	if cf == nil || !cf.Timeout {
		t.Fatalf("fault %+v: want Timeout=true", cf)
	}
	if cf.API != "PI_TryRead" {
		t.Errorf("fault API = %q", cf.API)
	}
	if cf.InCycle {
		t.Errorf("no deadlock service ran, yet InCycle is set: %+v", cf)
	}
	if !strings.Contains(cf.Error(), "fault_test.go") {
		t.Errorf("fault location %q does not point at the caller", cf.Error())
	}
}

// TestOpTimeoutCycleDiagnostic: a genuine circular wait under
// DeadlockDetection + OpTimeout degrades instead of aborting — the
// deadlocked operations time out, and their faults carry the detected
// cycle with the blocked call sites.
func TestOpTimeoutCycleDiagnostic(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{DeadlockDetection: true, OpTimeout: sim.Millisecond})
	var toPeer, fromPeer *Channel
	peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, _ any) {
		var v int32
		ctx.Read(toPeer, "%d", &v) // waits for main, which waits for us
	}, 0, nil)
	toPeer = a.CreateChannel(a.Main(), peer)
	fromPeer = a.CreateChannel(peer, a.Main())

	mainDone := false
	err := a.Run(func(ctx *Ctx) {
		var v int32
		ctx.Read(fromPeer, "%d", &v)
		mainDone = true // unreachable: the read faults and unwinds
	})
	if err == nil {
		t.Fatal("deadlocked run returned nil")
	}
	if mainDone {
		t.Fatal("main continued past a hard-faulted Read")
	}
	var sum *FaultSummary
	if !errors.As(err, &sum) {
		t.Fatalf("Run error %T is not a *FaultSummary: %v", err, err)
	}
	inCycle := 0
	for _, f := range sum.Faults {
		if !f.Timeout {
			continue
		}
		if f.InCycle {
			inCycle++
			if !strings.Contains(f.CycleDetail, "circular wait") {
				t.Errorf("cycle detail %q", f.CycleDetail)
			}
			if !strings.Contains(f.CycleDetail, "fault_test.go") {
				t.Errorf("cycle detail lacks blocked call sites: %q", f.CycleDetail)
			}
		}
	}
	if inCycle == 0 {
		t.Fatalf("no timeout fault carried the cycle diagnostic: %v", err)
	}
}

// TestOpTimeoutSlowPeerDiagnostic: with the deadlock service on, a
// timeout on a merely-slow peer must say it was NOT in a cycle, and name
// the blocked call site.
func TestOpTimeoutSlowPeerDiagnostic(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{DeadlockDetection: true})
	var ch *Channel
	writer := a.CreateProcessOn(1, "writer", func(ctx *Ctx, _ int, arg any) {
		ctx.P.Advance(5 * sim.Millisecond)
		ctx.Write(arg.(*Channel), "%d", int32(1))
	}, 0, nil)
	ch = a.CreateChannel(writer, a.Main())
	writer.arg = ch

	var cf *ChannelFault
	err := a.Run(func(ctx *Ctx) {
		var v int32
		terr := ctx.TryRead(ch, 500*sim.Microsecond, "%d", &v)
		if !errors.As(terr, &cf) {
			t.Errorf("TryRead error %T is not a *ChannelFault", terr)
		}
		ctx.Read(ch, "%d", &v) // drain so the writer finishes
	})
	if err != nil {
		t.Fatal(err)
	}
	if cf == nil || !cf.Timeout || cf.InCycle {
		t.Fatalf("fault %+v: want Timeout=true InCycle=false", cf)
	}
	if !strings.Contains(cf.CycleDetail, "not part of any detected wait cycle") {
		t.Errorf("diagnostic %q", cf.CycleDetail)
	}
}

// buildKillSPEApp wires the degradation scenario: a victim SPE blocked on
// a read the injector kills mid-run, plus a healthy SPE doing a pingpong
// that must be unaffected.
func buildKillSPEApp(t *testing.T, plan fault.Plan) (*App, *fault.Injector, func() (healthy int32, tryErr error, readErr error)) {
	t.Helper()
	c := newTestCluster(t)
	inj := fault.NewInjector(plan)
	a := NewApp(c, Options{Faults: inj})

	var toVictim, fromVictim, toEcho, fromEcho *Channel
	victim := &SPEProgram{Name: "victim", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(toVictim, "%d", &v) // no writer: parked until killed
		ctx.Write(fromVictim, "%d", v)
	}}
	echo := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(toEcho, "%d", &v)
		ctx.Write(fromEcho, "%d", v+1)
	}}
	vp := a.CreateSPE(victim, a.Main(), 0)
	ep := a.CreateSPE(echo, a.Main(), 1)
	toVictim = a.CreateChannel(a.Main(), vp)
	fromVictim = a.CreateChannel(vp, a.Main())
	toEcho = a.CreateChannel(a.Main(), ep)
	fromEcho = a.CreateChannel(ep, a.Main())

	var healthy int32
	var tryErr, readErr error
	run := func() (int32, error, error) {
		err := a.Run(func(ctx *Ctx) {
			ctx.RunSPE(vp, 0, nil)
			ctx.RunSPE(ep, 0, nil)
			ctx.Write(toEcho, "%d", int32(7))
			ctx.Read(fromEcho, "%d", &healthy)
			// By now the victim is dead; both its channels are poisoned.
			tryErr = ctx.TryRead(fromVictim, 5*sim.Millisecond, "%d", new(int32))
			readErr = ctx.TryWrite(toVictim, sim.Millisecond, "%d", int32(9))
		})
		if err == nil {
			t.Error("degraded run returned nil error")
		}
		var sum *FaultSummary
		if !errors.As(err, &sum) {
			t.Fatalf("Run error %T is not a *FaultSummary: %v", err, err)
		}
		if len(sum.Killed) != 1 || !strings.Contains(sum.Killed[0], "victim#0") {
			t.Errorf("killed = %v, want exactly victim#0", sum.Killed)
		}
		return healthy, tryErr, readErr
	}
	return a, inj, run
}

// TestKillSPEDegradation: killing one SPE mid-run faults only that SPE's
// channels; unaffected processes run to completion and App.Run returns a
// FaultSummary instead of panicking.
func TestKillSPEDegradation(t *testing.T) {
	plan := fault.Plan{Seed: 1, Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.KillSPE, Proc: "victim#0"},
	}}
	a, inj, run := buildKillSPEApp(t, plan)
	healthy, tryErr, readErr := run()
	if healthy != 8 {
		t.Errorf("healthy pingpong got %d, want 8", healthy)
	}
	for _, e := range []error{tryErr, readErr} {
		var cf *ChannelFault
		if !errors.As(e, &cf) {
			t.Fatalf("op on poisoned channel returned %T (%v), want *ChannelFault", e, e)
		}
		if !strings.Contains(cf.Reason, "killed") && !strings.Contains(cf.Reason, "dead") {
			t.Errorf("fault reason %q does not mention the kill", cf.Reason)
		}
	}
	if inj.Counts.ProcsKilled != 1 {
		t.Errorf("ProcsKilled = %d", inj.Counts.ProcsKilled)
	}
	st := a.Stats()
	if st.Faults == nil || st.Faults.ProcsKilled != 1 || len(st.Faults.Killed) != 1 {
		t.Errorf("Stats.Faults = %+v", st.Faults)
	}
	if !strings.Contains(st.String(), "killed victim#0") {
		t.Errorf("Stats rendering lacks the kill:\n%s", st)
	}
	// The Co-Pilots must not retain the dead SPE's queued request.
	for _, key := range a.copilotOrder {
		cp := a.copilots[key]
		if cp.pendWrites.size()+cp.pendReads.size() != 0 {
			t.Errorf("copilot %v retains %d+%d pending requests",
				key, cp.pendWrites.size(), cp.pendReads.size())
		}
	}
}

// TestKilledRunLifetimes: on a run with a killed SPE, each process's
// ProcTimes total equals its profiled lifetime, and every profiled
// lifetime, the Co-Pilots' and the killed SPE's included, is closed no
// later than the final clock.
func TestKilledRunLifetimes(t *testing.T) {
	plan := fault.Plan{Seed: 1, Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.KillSPE, Proc: "victim#0"},
	}}
	a, _, run := buildKillSPEApp(t, plan)
	prof := profile.New()
	a.Metrics, a.Profile = NewMeter(), prof
	run()
	final := a.K.Now()
	st := a.Stats()
	if len(st.ProcTimes) != 3 { // PI_MAIN, victim, echo
		t.Fatalf("ProcTimes = %+v, want 3 processes", st.ProcTimes)
	}
	for _, pt := range st.ProcTimes {
		start, end, ok := prof.Lifetime(pt.Process)
		if !ok || end-start != pt.Total {
			t.Errorf("%s: ProcTimes total %v, profiled lifetime %v..%v (found %v)", pt.Process, pt.Total, start, end, ok)
		}
	}
	copilots := 0
	for _, name := range prof.Procs() {
		start, end, _ := prof.Lifetime(name)
		if end <= start || end > final {
			t.Errorf("%s: lifetime %v..%v not closed within the run (final clock %v)", name, start, end, final)
		}
		if strings.HasPrefix(name, "copilot@") {
			copilots++
		}
	}
	if copilots != len(a.copilotOrder) {
		t.Errorf("profiled %d Co-Pilots, want %d: %v", copilots, len(a.copilotOrder), prof.Procs())
	}
}

// TestFaultDeterminism: the same seeded plan over the same program yields
// a bit-identical outcome — virtual end time, counters, and fault log.
func TestFaultDeterminism(t *testing.T) {
	type outcome struct {
		vt     sim.Time
		counts fault.Counts
		log    string
		errStr string
	}
	once := func() outcome {
		plan := fault.Plan{Seed: 7, Events: []fault.Event{
			{At: 700 * sim.Microsecond, Kind: fault.KillSPE, Proc: "victim#0"},
		}}
		a, inj, run := buildKillSPEApp(t, plan)
		run()
		return outcome{
			vt:     a.K.Now(),
			counts: inj.Counts,
			log:    strings.Join(inj.Log(), "\n"),
			errStr: a.faultSummary().Error(),
		}
	}
	o1, o2 := once(), once()
	if o1 != o2 {
		t.Fatalf("seeded fault run is not deterministic:\n--- run 1 ---\n%+v\n--- run 2 ---\n%+v", o1, o2)
	}
}

// TestCrashNodeDegradation: crashing a whole node kills its processes
// and Co-Pilot; survivors on other nodes still finish.
func TestCrashNodeDegradation(t *testing.T) {
	c := newTestCluster(t)
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.CrashNode, Node: 1},
	}})
	a := NewApp(c, Options{Faults: inj})
	var chDoomed, chOK *Channel
	doomed := a.CreateProcessOn(1, "doomed", func(ctx *Ctx, _ int, _ any) {
		var v int32
		ctx.Read(chDoomed, "%d", &v) // parked on node 1 until the crash
	}, 0, nil)
	friend := a.CreateProcessOn(2, "friend", func(ctx *Ctx, _ int, _ any) {
		ctx.Write(chOK, "%d", int32(5))
	}, 0, nil)
	chDoomed = a.CreateChannel(a.Main(), doomed)
	chOK = a.CreateChannel(friend, a.Main())

	var got int32
	err := a.Run(func(ctx *Ctx) {
		ctx.Read(chOK, "%d", &got)
		ctx.P.Advance(2 * sim.Millisecond) // let the crash land
		if terr := ctx.TryWrite(chDoomed, sim.Millisecond, "%d", int32(1)); terr == nil {
			t.Error("write to crashed node succeeded")
		}
	})
	var sum *FaultSummary
	if !errors.As(err, &sum) {
		t.Fatalf("Run error %T: %v", err, err)
	}
	if got != 5 {
		t.Errorf("survivor transfer got %d, want 5", got)
	}
	// The crash takes out both the doomed process and node 1's Co-Pilot.
	if inj.Counts.ProcsKilled != 2 {
		t.Errorf("ProcsKilled = %d, want 2 (doomed + copilot)", inj.Counts.ProcsKilled)
	}
	if !strings.Contains(strings.Join(sum.Killed, " "), "doomed") {
		t.Errorf("killed = %v", sum.Killed)
	}
}

// TestCopilotDrainUnderConcurrentTraffic drives types 2, 3, 4 and 5
// concurrently while one type-4 writer dies with its request queued in
// the Co-Pilot; every other flow completes, and the pending queues drain.
func TestCopilotDrainUnderConcurrentTraffic(t *testing.T) {
	c := newTestCluster(t)
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: 800 * sim.Microsecond, Kind: fault.KillSPE, Proc: "t4w#2"},
	}})
	a := NewApp(c, Options{Faults: inj})

	var t2down, t2up, t3down, t3up, t4, t5 *Channel

	// Type 2: PPE <-> local SPE pingpong.
	t2 := &SPEProgram{Name: "t2", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(t2down, "%d", &v)
		ctx.Write(t2up, "%d", v*2)
	}}
	// Type 3: Xeon <-> SPE.
	t3 := &SPEProgram{Name: "t3", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(t3down, "%d", &v)
		ctx.Write(t3up, "%d", v+100)
	}}
	// Type 4 pair: writer posts immediately and queues in the Co-Pilot
	// (the reader is deliberately slow), then dies.
	t4w := &SPEProgram{Name: "t4w", Body: func(ctx *SPECtx) {
		ctx.Write(t4, "%d", int32(1)) // queues, then the kill fires
	}}
	t4r := &SPEProgram{Name: "t4r", Body: func(ctx *SPECtx) {
		// Post the read only after the writer is dead: the poisoned
		// channel must fault this stub, not hang it.
		err := ctx.TryRead(t4, 2*sim.Millisecond, "%d", new(int32))
		if err == nil {
			t.Error("type-4 read from dead writer succeeded")
		}
	}}
	// Type 5: SPE on node 0 -> SPE on node 1.
	t5w := &SPEProgram{Name: "t5w", Body: func(ctx *SPECtx) {
		ctx.Write(t5, "%d", int32(55))
	}}
	t5r := &SPEProgram{Name: "t5r", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(t5, "%d", &v)
		if v != 55 {
			t.Errorf("type-5 got %d", v)
		}
	}}

	ppe1 := a.CreateProcessOn(1, "ppe1", func(ctx *Ctx, _ int, arg any) {
		for _, sp := range arg.([]*Process) {
			ctx.RunSPE(sp, 0, nil)
		}
	}, 0, nil)
	xeon := a.CreateProcessOn(2, "xeon", func(ctx *Ctx, _ int, _ any) {
		ctx.Write(t3down, "%d", int32(3))
		var v int32
		ctx.Read(t3up, "%d", &v)
		if v != 103 {
			t.Errorf("type-3 got %d", v)
		}
	}, 0, nil)

	t2p := a.CreateSPE(t2, a.Main(), 0)
	t3p := a.CreateSPE(t3, a.Main(), 1)
	t4wp := a.CreateSPE(t4w, a.Main(), 2)
	t4rp := a.CreateSPE(t4r, a.Main(), 3)
	t5rp := a.CreateSPE(t5r, ppe1, 0)
	t5wp := a.CreateSPE(t5w, a.Main(), 4)
	ppe1.arg = []*Process{t5rp}

	t2down = a.CreateChannel(a.Main(), t2p)
	t2up = a.CreateChannel(t2p, a.Main())
	t3down = a.CreateChannel(xeon, t3p)
	t3up = a.CreateChannel(t3p, xeon)
	t4 = a.CreateChannel(t4wp, t4rp)
	t5 = a.CreateChannel(t5wp, t5rp)

	err := a.Run(func(ctx *Ctx) {
		for _, sp := range []*Process{t2p, t3p, t4wp, t5wp} {
			ctx.RunSPE(sp, 0, nil)
		}
		ctx.P.Advance(1500 * sim.Microsecond) // let the kill land first
		ctx.RunSPE(t4rp, 0, nil)
		ctx.Write(t2down, "%d", int32(21))
		var v int32
		ctx.Read(t2up, "%d", &v)
		if v != 42 {
			t.Errorf("type-2 got %d", v)
		}
	})
	var sum *FaultSummary
	if !errors.As(err, &sum) {
		t.Fatalf("Run error %T: %v", err, err)
	}
	if len(sum.Killed) != 1 || !strings.Contains(sum.Killed[0], "t4w#2") {
		t.Errorf("killed = %v", sum.Killed)
	}
	for _, key := range a.copilotOrder {
		cp := a.copilots[key]
		if cp.pendWrites.size()+cp.pendReads.size() != 0 {
			t.Errorf("copilot %v retains %d pending writes, %d pending reads",
				key, cp.pendWrites.size(), cp.pendReads.size())
		}
	}
}

// TestKillCoPilot: killing a Co-Pilot poisons the SPE channels it
// services; the stubs fault (bounded by OpTimeout) instead of hanging.
func TestKillCoPilot(t *testing.T) {
	c := newTestCluster(t)
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: 300 * sim.Microsecond, Kind: fault.KillCoPilot, Node: 0},
	}})
	a := NewApp(c, Options{Faults: inj, OpTimeout: 2 * sim.Millisecond})
	var down *Channel
	spe := &SPEProgram{Name: "spe", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(down, "%d", &v) // its Co-Pilot dies under it
	}}
	sp := a.CreateSPE(spe, a.Main(), 0)
	down = a.CreateChannel(a.Main(), sp)
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(sp, 0, nil)
		ctx.P.Advance(sim.Millisecond)
		// The write is eager (fire-and-forget toward the dead Co-Pilot);
		// main itself must still finish.
	})
	var sum *FaultSummary
	if !errors.As(err, &sum) {
		t.Fatalf("Run error %T: %v", err, err)
	}
	if len(sum.Killed) == 0 || !strings.Contains(strings.Join(sum.Killed, " "), "copilot") {
		t.Errorf("killed = %v, want the node-0 copilot", sum.Killed)
	}
}

// TestMailboxDropRecovery: a dropped descriptor word is NACKed by the
// Co-Pilot and reposted by the stub; the transfer still completes and
// the protocol counters record the recovery.
func TestMailboxDropRecovery(t *testing.T) {
	c := newTestCluster(t)
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.MailboxDrop, Proc: "echo#0"},
	}})
	a := NewApp(c, Options{Faults: inj})
	var down, up *Channel
	echo := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(down, "%d", &v)
		ctx.Write(up, "%d", v*3)
	}}
	sp := a.CreateSPE(echo, a.Main(), 0)
	down = a.CreateChannel(a.Main(), sp)
	up = a.CreateChannel(sp, a.Main())
	var got int32
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(sp, 0, nil)
		ctx.Write(down, "%d", int32(11))
		ctx.Read(up, "%d", &got)
	})
	if err != nil {
		t.Fatalf("dropped mailbox word was not recovered: %v", err)
	}
	if got != 33 {
		t.Fatalf("got %d, want 33", got)
	}
	if inj.Counts.MailboxDrops != 1 {
		t.Errorf("MailboxDrops = %d, want 1", inj.Counts.MailboxDrops)
	}
	if inj.Counts.MailboxReposts == 0 {
		t.Errorf("drop recovered without a repost? counts=%+v", inj.Counts)
	}
}

// TestMailboxStallRecovery: a stalled descriptor word delays the request
// but must not corrupt the protocol; the transfer completes.
func TestMailboxStallRecovery(t *testing.T) {
	c := newTestCluster(t)
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.MailboxStall, Proc: "echo#0", Delay: 400 * sim.Microsecond},
	}})
	a := NewApp(c, Options{Faults: inj})
	var down, up *Channel
	echo := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(down, "%d", &v)
		ctx.Write(up, "%d", v+1)
	}}
	sp := a.CreateSPE(echo, a.Main(), 0)
	down = a.CreateChannel(a.Main(), sp)
	up = a.CreateChannel(sp, a.Main())
	var got int32
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(sp, 0, nil)
		ctx.Write(down, "%d", int32(1))
		ctx.Read(up, "%d", &got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	if inj.Counts.MailboxStalls != 1 {
		t.Errorf("MailboxStalls = %d, want 1", inj.Counts.MailboxStalls)
	}
}

// TestLossyLinkType1Delivery: a 10%-lossy internode link still delivers
// eager Type-1 traffic via retransmission, and the retry counters are
// visible in Stats and the metrics dump.
func TestLossyLinkType1Delivery(t *testing.T) {
	c := newTestCluster(t)
	inj := fault.NewInjector(fault.Plan{
		Seed: 42,
		Links: []fault.LinkPolicy{
			{From: 0, To: 1, DropProb: 0.10},
			{From: 1, To: 0, DropProb: 0.10},
		},
	})
	a := NewApp(c, Options{Faults: inj})
	a.Metrics = NewMeter()
	var down, up *Channel
	peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, _ any) {
		buf := make([]int32, 200)
		for i := 0; i < 20; i++ {
			ctx.Read(down, "%200d", buf)
			ctx.Write(up, "%200d", buf)
		}
	}, 0, nil)
	down = a.CreateChannel(a.Main(), peer)
	up = a.CreateChannel(peer, a.Main())
	buf := make([]int32, 200)
	for i := range buf {
		buf[i] = int32(i)
	}
	err := a.Run(func(ctx *Ctx) {
		got := make([]int32, 200)
		for i := 0; i < 20; i++ {
			ctx.Write(down, "%200d", buf)
			ctx.Read(up, "%200d", got)
		}
		for i := range got {
			if got[i] != int32(i) {
				t.Fatalf("corrupted delivery at %d: %d", i, got[i])
			}
		}
	})
	if err != nil {
		t.Fatalf("lossy link was not recovered: %v", err)
	}
	if inj.Counts.LinkDrops == 0 {
		t.Fatalf("10%% loss over 40 transfers dropped nothing; counts=%+v", inj.Counts)
	}
	if inj.Counts.Retransmits == 0 {
		t.Errorf("drops were never retransmitted; counts=%+v", inj.Counts)
	}
	st := a.Stats()
	if st.Faults == nil || st.Faults.Retransmits != inj.Counts.Retransmits {
		t.Errorf("Stats.Faults retransmits mismatch: %+v", st.Faults)
	}
	if dump := st.Registry.Dump(); !strings.Contains(dump, "fault/retransmits") {
		t.Errorf("metrics dump lacks fault counters:\n%s", dump)
	}
}

// TestSPETryReadTimeoutWithoutFaultMachinery: an SPE's TryRead honours
// its timeout in an App with no injector and no OpTimeout. The timeout
// poisons the channel, since the stub left the mailbox protocol
// mid-flight, so the writer's later blocking Write on it unwinds and Run
// reports that fault.
func TestSPETryReadTimeoutWithoutFaultMachinery(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var ch *Channel
	var tryErr error
	var got int32
	spe := a.CreateSPE(&SPEProgram{Name: "reader", Body: func(c *SPECtx) {
		tryErr = c.TryRead(ch, 50*sim.Microsecond, "%d", &got)
	}}, a.Main(), 0)
	ch = a.CreateChannel(a.Main(), spe) // type 2
	wrote := false
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		ctx.P.Advance(sim.Millisecond)
		ctx.Write(ch, "%d", int32(7))
		wrote = true
	})
	var cf *ChannelFault
	if !errors.As(tryErr, &cf) || !cf.Timeout {
		t.Fatalf("SPE TryRead returned %v (value %d), want a timeout *ChannelFault", tryErr, got)
	}
	if cf.API != "PI_TryRead" {
		t.Errorf("fault API = %q", cf.API)
	}
	if wrote {
		t.Error("PI_MAIN's Write on the poisoned channel returned")
	}
	var sum *FaultSummary
	if !errors.As(err, &sum) {
		t.Fatalf("Run returned %v, want a *FaultSummary", err)
	}
	if len(sum.Faults) != 1 || sum.Faults[0].API != "PI_Write" || sum.Faults[0].ChannelID != ch.id {
		t.Fatalf("summary faults %v, want PI_MAIN's PI_Write on %s", sum.Faults, ch)
	}
}

// TestNoStaleCompletionWord: a completion its stub gave up on never
// reaches the stub. The SPE's TryRead on ab times out and poisons ab, so
// the Co-Pilot sheds the abandoned read request with a fault status. The
// SPE's next operation, a TryWrite on ba, must read its own completion,
// not that stale word.
func TestNoStaleCompletionWord(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{OpTimeout: sim.Second})
	var ab, ba *Channel
	var readErr, writeErr error
	spe := a.CreateSPE(&SPEProgram{Name: "spe", Body: func(c *SPECtx) {
		var v int32
		readErr = c.TryRead(ab, 50*sim.Microsecond, "%d", &v)
		writeErr = c.TryWrite(ba, 0, "%d", int32(100))
	}}, a.Main(), 0)
	ab, ba = a.CreateChannel(a.Main(), spe), a.CreateChannel(spe, a.Main())
	var got int32
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		ctx.Read(ba, "%d", &got)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var cf *ChannelFault
	if !errors.As(readErr, &cf) || !cf.Timeout {
		t.Fatalf("TryRead on ab returned %v, want a timeout *ChannelFault", readErr)
	}
	if writeErr != nil {
		t.Fatalf("TryWrite on ba after the abandoned TryRead: %v", writeErr)
	}
	if got != 100 {
		t.Fatalf("PI_MAIN read %d on ba, want 100", got)
	}
}

// TestCutDescriptorDropped: an SPE TryRead whose timeout passes while
// the stub is still writing its request descriptor leaves the Co-Pilot a
// descriptor cut short. The Co-Pilot must drop it, not wait for the
// missing words or read the stub's next descriptor as their tail, and go
// on serving: the stub's next Write, on a healthy channel, and a second
// SPE's Write under the same Co-Pilot both arrive, and only PI_MAIN's
// Write on the poisoned channel faults. A 10 µs timeout passes after the
// first descriptor word and before the last, whatever the phase of the
// Co-Pilot's polling tick, which the SPE's start delay sweeps. The drop
// comes at the same instant with and without fault machinery.
func TestCutDescriptorDropped(t *testing.T) {
	for delay := sim.Time(0); delay < 14*sim.Microsecond; delay += sim.Microsecond {
		var end [2]sim.Time
		for i, arm := range []struct {
			name string
			opts Options
		}{{"bare", Options{}}, {"OpTimeout", Options{OpTimeout: sim.Second}}} {
			c := newTestCluster(t)
			a := NewApp(c, arm.opts)
			var ab, ba, bm *Channel
			var tryErr error
			spe := a.CreateSPE(&SPEProgram{Name: "a", Body: func(c *SPECtx) {
				c.P.Advance(delay)
				var v int32
				tryErr = c.TryRead(ab, 10*sim.Microsecond, "%d", &v)
				c.Write(ba, "%d", int32(100))
			}}, a.Main(), 0)
			other := a.CreateSPE(&SPEProgram{Name: "b", Body: func(c *SPECtx) {
				c.Write(bm, "%d", int32(200))
			}}, a.Main(), 1)
			ab, ba, bm = a.CreateChannel(a.Main(), spe), a.CreateChannel(spe, a.Main()), a.CreateChannel(other, a.Main())
			var fromA, fromB int32
			err := a.Run(func(ctx *Ctx) {
				ctx.RunSPE(spe, 0, nil)
				ctx.RunSPE(other, 0, nil)
				ctx.Read(ba, "%d", &fromA)
				ctx.Read(bm, "%d", &fromB)
				ctx.Write(ab, "%d", int32(7))
			})
			var cf *ChannelFault
			if !errors.As(tryErr, &cf) || !cf.Timeout {
				t.Fatalf("delay %v %s: TryRead returned %v, want a timeout *ChannelFault", delay, arm.name, tryErr)
			}
			if fromA != 100 || fromB != 200 {
				t.Fatalf("delay %v %s: PI_MAIN read %d and %d, want 100 and 200", delay, arm.name, fromA, fromB)
			}
			var sum *FaultSummary
			if !errors.As(err, &sum) {
				t.Fatalf("delay %v %s: Run returned %v, want a *FaultSummary", delay, arm.name, err)
			}
			if len(sum.Faults) != 1 || sum.Faults[0].API != "PI_Write" || sum.Faults[0].ChannelID != ab.id {
				t.Fatalf("delay %v %s: faults %v, want PI_MAIN's PI_Write on %s", delay, arm.name, sum.Faults, ab)
			}
			end[i] = a.K.Now()
		}
		if end[0] != end[1] {
			t.Errorf("delay %v: run ends at %v without fault machinery, %v with OpTimeout", delay, end[0], end[1])
		}
	}
}

// TestSecondCutDescriptorDropped: a stub can cut a second descriptor
// before its Co-Pilot has read the words of the first, when a mailbox
// write costs less than half a read: the stub gives up on a TryRead after
// one word, and its next TryRead's deadline passes after that one's first
// word while the Co-Pilot is still reading the first's. Both must be
// dropped, and the stub's Write after them must arrive. The second
// timeout sweeps that window.
func TestSecondCutDescriptorDropped(t *testing.T) {
	par := cellbe.DefaultParams()
	par.MailboxWrite = 0
	par.MailboxRead = 2 * sim.Microsecond
	for second := sim.Time(250); second < 30*sim.Microsecond; second += 250 {
		c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1, Params: par})
		if err != nil {
			t.Fatal(err)
		}
		a := NewApp(c, Options{})
		var ab, ac, ba *Channel
		spe := a.CreateSPE(&SPEProgram{Name: "a", Body: func(c *SPECtx) {
			var v int32
			c.TryRead(ab, 5*sim.Microsecond, "%d", &v)
			c.TryRead(ac, second, "%d", &v)
			c.Write(ba, "%d", int32(100))
		}}, a.Main(), 0)
		ab, ac, ba = a.CreateChannel(a.Main(), spe), a.CreateChannel(a.Main(), spe), a.CreateChannel(spe, a.Main())
		var got int32
		err = a.Run(func(ctx *Ctx) {
			ctx.RunSPE(spe, 0, nil)
			ctx.Read(ba, "%d", &got)
		})
		if err != nil || got != 100 {
			t.Fatalf("second timeout %v: PI_MAIN read %d, Run returned %v", second, got, err)
		}
	}
}

// TestNoStaleCompletionWordMidWrite: a stub can give up on a request
// while the Co-Pilot is writing its completion word; the word must then
// not be delivered either. The SPE's TryWrite timeout sweeps past the
// instant its completion is written, and its next operation, a Read,
// must return PI_MAIN's 300, not unpack its buffer early on the stale
// word.
func TestNoStaleCompletionWordMidWrite(t *testing.T) {
	for timeout := 5 * sim.Microsecond; timeout < 120*sim.Microsecond; timeout += 250 {
		c := newTestCluster(t)
		a := NewApp(c, Options{})
		var w, r *Channel
		var v int32
		spe := a.CreateSPE(&SPEProgram{Name: "spe", Body: func(c *SPECtx) {
			c.TryWrite(w, timeout, "%d", int32(100))
			c.Read(r, "%d", &v)
		}}, a.Main(), 0)
		w, r = a.CreateChannel(spe, a.Main()), a.CreateChannel(a.Main(), spe)
		err := a.Run(func(ctx *Ctx) {
			ctx.RunSPE(spe, 0, nil)
			ctx.P.Advance(200 * sim.Microsecond)
			ctx.Write(r, "%d", int32(300))
		})
		if err != nil || v != 300 {
			t.Fatalf("TryWrite timeout %v: the SPE read %d, Run returned %v", timeout, v, err)
		}
	}
}
