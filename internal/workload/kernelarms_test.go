package workload

import (
	"errors"
	"sync"
	"testing"

	"cellpilot/internal/core"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
)

// chaosArmResult is every observable the kernel-arm determinism contract
// covers: the chaos fingerprint, the rendered post-run App.Stats() report,
// the windowed telemetry fingerprint, the flow-observatory fingerprint and
// its full rendered report (matrix, top-K, resources), plus the raw stats
// struct for field-level equivalence checks.
type chaosArmResult struct {
	fp, stats, tlFP    string
	flowFP, flowReport string
	st                 core.Stats
}

// chaosArmRun executes the reference chaos scenario with the stats,
// timeline and flowmap sinks attached.
func chaosArmRun() (chaosArmResult, error) {
	var st core.Stats
	tl := timeline.New(200 * sim.Microsecond)
	fl := flowmap.New(0)
	r, err := Chaos(ChaosConfig{
		Seed: 11, LossProb: 0.1, KillSPE: true, MailboxDrops: 3,
		Stats: &st, Timeline: tl, Flows: fl,
	})
	if err != nil {
		return chaosArmResult{}, err
	}
	return chaosArmResult{
		fp: r.Fingerprint(), stats: st.String(), tlFP: tl.Fingerprint(),
		flowFP: fl.Fingerprint(), flowReport: fl.Report(0).String(),
		st: st,
	}, nil
}

// compareArms fails the test on the first observable that diverges
// between two arms of the same chaos run.
func compareArms(t *testing.T, labelA, labelB string, a, b chaosArmResult) {
	t.Helper()
	check := func(what, va, vb string) {
		t.Helper()
		if va != vb {
			t.Fatalf("%s diverges:\n--- %s ---\n%s\n--- %s ---\n%s", what, labelA, va, labelB, vb)
		}
	}
	check("chaos fingerprint", a.fp, b.fp)
	check("stats report", a.stats, b.stats)
	check("timeline fingerprint", a.tlFP, b.tlFP)
	check("flow fingerprint", a.flowFP, b.flowFP)
	check("flow report", a.flowReport, b.flowReport)
}

// TestChaosKernelArmsDeterminism is the kernel-replacement acceptance
// check at the workload layer: the reference chaos run must produce
// bit-identical fingerprints, stats reports, timeline series and flow
// tables under (1) the default calendar queue, (2) the original heap
// queue, and (3) a goroutine of its own, concurrent with a neighbour
// simulation competing for the host's cores.
func TestChaosKernelArmsDeterminism(t *testing.T) {
	ref, err := chaosArmRun()
	if err != nil {
		t.Fatal(err)
	}

	// Arm: the retained heap queue must reproduce the calendar result.
	prev := sim.SetDefaultQueueKind(sim.QueueHeap)
	heap, err := chaosArmRun()
	sim.SetDefaultQueueKind(prev)
	if err != nil {
		t.Fatal(err)
	}
	compareArms(t, "calendar", "heap", ref, heap)

	// Arm: the same run on its own goroutine, racing a noisy neighbour
	// replica on another.
	var (
		wg                sync.WaitGroup
		conc              chaosArmResult
		concErr, noiseErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		conc, concErr = chaosArmRun()
	}()
	go func() {
		defer wg.Done()
		_, noiseErr = PingPong(PingPongConfig{Type: 1, Bytes: 256, Method: MethodCellPilot, Reps: 20})
	}()
	wg.Wait()
	if err := errors.Join(concErr, noiseErr); err != nil {
		t.Fatal(err)
	}
	compareArms(t, "sequential", "concurrent", ref, conc)

	// Field-level equivalence on the shared-resource accounting the flow
	// observatory attributes against: per-NIC link occupancy and per-node
	// Co-Pilot relay counters must match sequential vs concurrent exactly.
	if len(conc.st.Links) != len(ref.st.Links) {
		t.Fatalf("link count diverges: sequential %d, concurrent %d", len(ref.st.Links), len(conc.st.Links))
	}
	for i, lu := range ref.st.Links {
		if conc.st.Links[i] != lu {
			t.Errorf("LinkStats[%d] diverges: sequential %+v, concurrent %+v", i, lu, conc.st.Links[i])
		}
	}
	if len(conc.st.CoPilots) != len(ref.st.CoPilots) {
		t.Fatalf("Co-Pilot count diverges: sequential %d, concurrent %d", len(ref.st.CoPilots), len(conc.st.CoPilots))
	}
	for i, cp := range ref.st.CoPilots {
		if got := conc.st.CoPilots[i].RelayedBytes; got != cp.RelayedBytes {
			t.Errorf("CoPilots[%d].RelayedBytes diverges: sequential %d, concurrent %d", i, cp.RelayedBytes, got)
		}
	}
}
