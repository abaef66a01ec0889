package workload

import (
	"strings"
	"testing"

	"cellpilot/internal/core"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// TestChaosDeterminism: the full chaos scenario — lossy links, an SPE
// kill, and mailbox drops at once — must be bit-for-bit reproducible.
func TestChaosDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, LossProb: 0.1, KillSPE: true, MailboxDrops: 3}
	a, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("chaos run not deterministic:\n--- run A ---\n%s\n--- run B ---\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
}

// TestChaosKillDegradation: killing the type-4 writer SPE mid-run faults
// only the type-4 flow; the other four channel types complete in full and
// the run reports a structured fault summary.
func TestChaosKillDegradation(t *testing.T) {
	r, err := Chaos(ChaosConfig{Seed: 3, KillSPE: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []int{1, 2, 3, 5} {
		if r.Completed[typ] != 20 {
			t.Errorf("type %d completed %d/20 round trips; kill should not touch it", typ, r.Completed[typ])
		}
	}
	if r.Completed[4] >= 20 {
		t.Errorf("type 4 completed all %d round trips despite its writer being killed", r.Completed[4])
	}
	if r.Counts.ProcsKilled != 1 {
		t.Errorf("ProcsKilled = %d, want 1", r.Counts.ProcsKilled)
	}
	if len(r.Killed) != 1 || !strings.Contains(r.Killed[0], "c4w#2") {
		t.Errorf("Killed = %v, want the c4w#2 stub", r.Killed)
	}
	if r.RunErr == "" {
		t.Error("Run returned nil despite a killed SPE; want a fault summary")
	}
}

// TestChaosLossyAllTypes: a 10% lossy inter-node link must not lose any
// traffic — all five channel types deliver every round trip, with the
// recovery visible in the retry counters and the metrics dump.
func TestChaosLossyAllTypes(t *testing.T) {
	r, err := Chaos(ChaosConfig{Seed: 42, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for typ := 1; typ <= 5; typ++ {
		if r.Completed[typ] != 20 {
			t.Errorf("type %d completed %d/20 round trips under 10%% loss", typ, r.Completed[typ])
		}
	}
	if r.RunErr != "" {
		t.Errorf("lossy run should recover cleanly, got error: %s", r.RunErr)
	}
	if r.Counts.LinkDrops == 0 {
		t.Error("no link drops recorded; the loss policy did not engage")
	}
	if r.Counts.Retransmits == 0 {
		t.Error("no retransmits recorded; drops were not recovered by retry")
	}
	found := false
	for _, line := range r.MetricsFaultLines {
		if strings.HasPrefix(line, "fault/retransmits") {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics dump lacks fault/retransmits: %v", r.MetricsFaultLines)
	}
}

// TestChaosMailboxFaults: dropped SPE descriptor words are recovered by
// the sequence/ACK repost protocol without losing any round trips.
func TestChaosMailboxFaults(t *testing.T) {
	r, err := Chaos(ChaosConfig{Seed: 9, MailboxDrops: 4})
	if err != nil {
		t.Fatal(err)
	}
	for typ := 1; typ <= 5; typ++ {
		if r.Completed[typ] != 20 {
			t.Errorf("type %d completed %d/20 round trips under mailbox drops", typ, r.Completed[typ])
		}
	}
	if r.RunErr != "" {
		t.Errorf("mailbox-fault run should recover cleanly, got error: %s", r.RunErr)
	}
	if r.Counts.MailboxDrops == 0 {
		t.Error("no mailbox drops recorded; events did not arm")
	}
	if r.Counts.MailboxReposts == 0 {
		t.Error("no reposts recorded; dropped descriptors were not retried")
	}
}

// TestChaosSweep: several seeds of the combined scenario all uphold the
// degradation contract (untouched flows complete; run never panics).
func TestChaosSweep(t *testing.T) {
	rs, err := ChaosSweep(ChaosConfig{LossProb: 0.1, KillSPE: true, MailboxDrops: 2, Reps: 10},
		[]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		for _, typ := range []int{1, 2, 3, 5} {
			if r.Completed[typ] != 10 {
				t.Errorf("seed %d: type %d completed %d/10", r.Config.Seed, typ, r.Completed[typ])
			}
		}
		if r.RunErr == "" {
			t.Errorf("seed %d: no fault summary despite kill", r.Config.Seed)
		}
	}
}

// TestChaosHostProfDeterminism: attaching the wall-clock host profiler —
// stride 1, so every slice is timed — must leave the same-seed chaos
// fingerprint bit-for-bit identical. Wall-clock observation lives strictly
// outside the virtual timeline.
func TestChaosHostProfDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, LossProb: 0.1, KillSPE: true, MailboxDrops: 3}
	bare, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := hostprof.New(1)
	cfg.HostProf = h
	probed, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Fingerprint() != probed.Fingerprint() {
		t.Fatalf("host profiler perturbed the chaos run:\n--- bare ---\n%s\n--- probed ---\n%s",
			bare.Fingerprint(), probed.Fingerprint())
	}
	if snap := h.Snapshot(); snap.Events == 0 {
		t.Fatal("host profiler attached but saw no events")
	}
}

// TestSinksConserveSpanPhases: with every sink attached to a chaos run
// whose mailbox drops force reposts and whose lossy link forces
// retransmits, the profiler and the flow map agree with the span log they
// are derived from. For each profiled track, the buckets other than
// compute sum to the track's recorded phases (Co-Pilot wait and chunk
// annotations are not the track's own time), and mbox-req plus
// fault-backoff is its mailbox-request phases. Each Co-Pilot's occupancy
// in the flow report is its copy, relay and chunk-relay phases.
func TestSinksConserveSpanPhases(t *testing.T) {
	sinks := core.Sinks{
		Trace: trace.NewRecorder(0), Metrics: core.NewMeter(), Profile: profile.New(),
		HostProf: hostprof.New(1), Timeline: timeline.New(0), Flows: flowmap.New(0),
	}
	res, err := Chaos(ChaosConfig{Seed: 3, Reps: 40, LossProb: 0.1, MailboxDrops: 6, Sinks: sinks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.MailboxReposts == 0 || res.Counts.Retransmits == 0 {
		t.Fatalf("the run must repost and retransmit to test the split: %+v", res.Counts)
	}
	var own, mboxReq, copilot = map[string]sim.Time{}, map[string]sim.Time{}, map[string]sim.Time{}
	for _, pe := range sinks.Trace.Phases() {
		if pe.Phase.IsAnnotation() || pe.Phase == trace.PhaseCoPilotWait {
			continue
		}
		own[pe.Proc] += pe.Dur()
		switch pe.Phase {
		case trace.PhaseMailboxReq:
			mboxReq[pe.Proc] += pe.Dur()
		case trace.PhaseCopy, trace.PhaseRelay, trace.PhaseChunkRelay:
			copilot[pe.Proc] += pe.Dur()
		}
	}
	prof, backoff := sinks.Profile, sim.Time(0)
	for _, name := range prof.Procs() {
		b := prof.Buckets(name)
		var sum sim.Time
		for bucket, d := range b {
			if bucket != profile.BucketCompute {
				sum += d
			}
		}
		if sum != own[name] {
			t.Errorf("%s: buckets other than compute sum to %v, its phases to %v", name, sum, own[name])
		}
		if got := b["mbox-req"] + b[profile.BucketFaultBackoff]; got != mboxReq[name] {
			t.Errorf("%s: mbox-req + fault-backoff = %v, its mailbox-request phases %v", name, got, mboxReq[name])
		}
		backoff += b[profile.BucketFaultBackoff]
	}
	if backoff == 0 {
		t.Error("no fault-backoff attributed although stubs reposted")
	}
	seen := 0
	for _, r := range sinks.Flows.Report(0).Resources {
		if !strings.HasPrefix(r.Name, "copilot@") {
			continue
		}
		seen++
		if r.Busy != copilot[r.Name] {
			t.Errorf("%s: flow-map busy %v, its copy/relay/chunk-relay phases %v", r.Name, r.Busy, copilot[r.Name])
		}
	}
	if seen == 0 {
		t.Error("the flow report names no Co-Pilot")
	}
}
