package scenario

import (
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

// azScenario mirrors scenarios/az-node-loss.yaml: a whole Cell blade
// crashes at 2ms. The backlog drains back to baseline within a
// millisecond while the dead type-1 channel retains its unread write
// forever — the shape the temporal checks below exercise.
func azScenario() *Scenario {
	return &Scenario{
		Name:     "az",
		Seed:     11,
		Topology: Topology{CellNodes: 3, CellsPerNode: 2, XeonNodes: 1},
		Workloads: []Workload{
			{Kind: KindChaos, Reps: 20},
		},
		Faults: []FaultSpec{
			{Kind: FaultCrashNode, At: 2 * sim.Millisecond, Node: 1},
		},
	}
}

func TestTemporalAssertionsDecode(t *testing.T) {
	doc := `
name: temporal
workloads:
  - kind: chaos
faults:
  - kind: kill-spe
    at: 1ms
    proc: c4w#2
timeline:
  window: 50us
assertions:
  - kind: window
    series: copilot/copilot@cell0/utilization
    from: 100us
    to: 3ms
    max: 4.0
    min_peak: 0.5
  - kind: peak_backlog
    type: 3
    max: 8
    min: 1
  - kind: recovery_within
    series: backlog/total
    max: 2ms
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Timeline.Window != 50*sim.Microsecond {
		t.Fatalf("timeline window = %v", s.Timeline.Window)
	}
	if len(s.Assertions) != 3 {
		t.Fatalf("assertions = %d", len(s.Assertions))
	}
	w := s.Assertions[0]
	if w.Kind != AssertWindow || w.Series != "copilot/copilot@cell0/utilization" ||
		w.From != 100*sim.Microsecond || w.To != 3*sim.Millisecond ||
		w.MaxValue != 4.0 || w.MinPeak != 0.5 {
		t.Fatalf("window assertion = %+v", w)
	}
	p := s.Assertions[1]
	if p.Kind != AssertPeakBacklog || p.Type != 3 || p.MaxBacklog != 8 || p.MinBacklog != 1 {
		t.Fatalf("peak_backlog assertion = %+v", p)
	}
	r := s.Assertions[2]
	if r.Kind != AssertRecoveryWithin || r.Series != "backlog/total" || r.MaxRecovery != 2*sim.Millisecond {
		t.Fatalf("recovery_within assertion = %+v", r)
	}
}

func TestTemporalValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"window needs series", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertWindow, MaxValue: 1}}
		}, "name the timeline series"},
		{"unknown series", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertWindow, Series: "cpu/steal", MaxValue: 1}}
		}, "unknown timeline series"},
		{"empty window range", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertWindow, Series: "net/bytes",
				From: 2 * sim.Millisecond, To: sim.Millisecond, MaxValue: 1}}
		}, "empty window range"},
		{"window needs a bound", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertWindow, Series: "net/bytes"}}
		}, "set max and/or min_peak"},
		{"window bounds empty", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertWindow, Series: "net/bytes", MaxValue: 1, MinPeak: 2}}
		}, "min_peak 2 > max 1"},
		{"peak_backlog type range", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertPeakBacklog, Type: 6, MaxBacklog: 4}}
		}, "out of range 0..5"},
		{"peak_backlog needs max", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertPeakBacklog, Type: 1}}
		}, "max must be positive"},
		{"recovery needs positive max", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertRecoveryWithin}}
		}, "positive max recovery"},
		{"recovery needs a fault", func(s *Scenario) {
			s.Faults = nil
			s.Assertions = []Assertion{{Kind: AssertRecoveryWithin, MaxRecovery: sim.Millisecond}}
		}, "schedule at least one timed fault"},
		{"recovery rejects link-only faults", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultLossyLink, From: 0, To: 1, DropProb: 0.1}}
			s.Assertions = []Assertion{{Kind: AssertRecoveryWithin, MaxRecovery: sim.Millisecond}}
		}, "schedule at least one timed fault"},
		{"timeline needs chaos", func(s *Scenario) {
			s.Workloads = []Workload{{Kind: KindPingPong}}
			s.Faults = nil
			s.Timeline = TimelineSpec{Window: 100 * sim.Microsecond}
		}, "add a chaos workload"},
		{"negative window", func(s *Scenario) {
			s.Timeline = TimelineSpec{Window: -1}
		}, "window must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := azScenario()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// One run, checked against passing and violated temporal bounds — the
// bounds are calibrated against the deterministic az-node-loss shape:
// backlog/total peaks at 3 and recovers 900µs after the 2ms crash, while
// the dead type-1 channel's backlog never drains.
func TestTemporalChecksPassAndFail(t *testing.T) {
	s := azScenario()
	s.Assertions = []Assertion{
		{Kind: AssertRecoveryWithin, MaxRecovery: 2 * sim.Millisecond},                                         // 900µs: passes
		{Kind: AssertPeakBacklog, MaxBacklog: 6, MinBacklog: 2},                                                // peak 3: passes
		{Kind: AssertWindow, Series: "copilot/copilot@cell0/utilization", To: 2 * sim.Millisecond, MinPeak: 1}, // hot pre-crash: passes
		{Kind: AssertRecoveryWithin, MaxRecovery: 100 * sim.Microsecond},                                       // too tight: fails
		{Kind: AssertRecoveryWithin, Series: "backlog/type1", MaxRecovery: sim.Second},                         // never drains: fails
		{Kind: AssertPeakBacklog, Type: 2, MinBacklog: 1, MaxBacklog: 5},                                       // type 2 never queued: fails
		{Kind: AssertWindow, Series: "backlog/total", MaxValue: 0.5},                                           // backlog exists: fails
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vs := Check(out)
	byIndex := map[int][]Violation{}
	for _, v := range vs {
		byIndex[v.Index] = append(byIndex[v.Index], v)
	}
	for _, idx := range []int{0, 1, 2} {
		if len(byIndex[idx]) != 0 {
			t.Errorf("assertions[%d] should pass: %v", idx, byIndex[idx])
		}
	}
	if len(byIndex[3]) != 1 || !strings.Contains(byIndex[3][0].Message, "took") ||
		!strings.Contains(byIndex[3][0].Message, "crash-node(node1)") {
		t.Errorf("tight recovery violation = %v", byIndex[3])
	}
	if len(byIndex[4]) != 1 || !strings.Contains(byIndex[4][0].Message, "never recovered") {
		t.Errorf("stuck-series violation = %v", byIndex[4])
	}
	if len(byIndex[5]) != 1 || !strings.Contains(byIndex[5][0].Message, "never queued") {
		t.Errorf("min-backlog violation = %v", byIndex[5])
	}
	if len(byIndex[6]) == 0 || !strings.Contains(byIndex[6][0].Message, "exceeds bound") {
		t.Errorf("window-max violation = %v", byIndex[6])
	}
}

// Temporal assertions force a timeline onto the chaos runs; its
// fingerprint folds into the scenario fingerprint and stays bit-identical
// across re-runs (the determinism assertion compares full fingerprints,
// timeline lines included).
func TestTimelineFingerprintDeterministicUnderChaos(t *testing.T) {
	s := azScenario()
	s.Timeline = TimelineSpec{Window: 100 * sim.Microsecond}
	s.Assertions = []Assertion{{Kind: AssertDeterminism}}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, want := range []string{
		"  timeline window_ns=100000",
		"  series backlog/total",
		"  fault at_ns=2000000 label=\"crash-node(node1)\"",
	} {
		if !strings.Contains(out.Fingerprint, want) {
			t.Fatalf("fingerprint missing %q:\n%s", want, out.Fingerprint)
		}
	}
	if out.DeterminismDiff != "" {
		t.Fatalf("fingerprints diverged:\n%s", out.DeterminismDiff)
	}
	if vs := Check(out); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	// Without a timeline block or temporal assertion no recorder attaches
	// and the fingerprint carries no timeline lines — the zero-cost
	// contract at the DSL layer.
	bare := azScenario()
	bareOut, err := Run(bare, Options{})
	if err != nil {
		t.Fatalf("Run bare: %v", err)
	}
	if strings.Contains(bareOut.Fingerprint, "timeline window_ns=") {
		t.Fatalf("bare run fingerprint carries timeline lines:\n%s", bareOut.Fingerprint)
	}
	if bareOut.Chaos.Runs[0].Timeline != nil {
		t.Fatal("bare run attached a timeline recorder")
	}
}

// The builder reaches the same validation gate as YAML.
func TestBuilderWithTimeline(t *testing.T) {
	s, err := New("built-temporal").
		WithSeed(11).
		WithTopology(3, 2, 1).
		AddWorkload(Workload{Kind: KindChaos, Reps: 20}).
		AddFault(FaultSpec{Kind: FaultCrashNode, At: 2 * sim.Millisecond, Node: 1}).
		WithTimeline(0).
		Assert(Assertion{Kind: AssertRecoveryWithin, MaxRecovery: 2 * sim.Millisecond}).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s.Timeline.Window != 100*sim.Microsecond {
		t.Fatalf("default window = %v", s.Timeline.Window)
	}
	_, err = New("bad-temporal").
		AddWorkload(Workload{Kind: KindChaos}).
		Assert(Assertion{Kind: AssertRecoveryWithin, MaxRecovery: sim.Millisecond}).
		Build()
	if err == nil || !strings.Contains(err.Error(), "timed fault") {
		t.Fatalf("Build without a fault = %v", err)
	}
}
