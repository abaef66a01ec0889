package scenario

import (
	"fmt"
	"sort"
	"strings"

	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/workload"
)

// Validate checks everything about a scenario that can be checked without
// running it: topology shape, workload parameters, fault targets against
// the topology and the chaos process layout, link-policy overlap, and
// assertion/workload binding. A scenario that validates either runs or
// fails an assertion — it never panics or dies on a config mistake at
// virtual time T.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario needs a name")
	}
	if !validKey(s.Name) {
		return fmt.Errorf("scenario name %q must be a kebab-case identifier", s.Name)
	}
	if s.Seed < 0 {
		return fmt.Errorf("scenario seed must be non-negative, got %d", s.Seed)
	}
	t := s.topology()
	if t.CellNodes < 2 {
		return fmt.Errorf("topology: need at least 2 Cell nodes (the channel grid spans two blades), got %d", t.CellNodes)
	}
	if t.CellsPerNode < 1 || t.CellsPerNode > 4 {
		return fmt.Errorf("topology: cells_per_node must be 1..4, got %d", t.CellsPerNode)
	}
	if t.XeonNodes < 0 {
		return fmt.Errorf("topology: xeon_nodes must be non-negative, got %d", t.XeonNodes)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario needs at least one workload")
	}
	for i, w := range s.Workloads {
		if err := s.validateWorkload(i, w); err != nil {
			return err
		}
	}
	if len(s.Faults) > 0 && !s.hasWorkload(KindChaos) {
		return fmt.Errorf("faults need a chaos workload entry to bite on (pingpong/sizesweep/imb run unhardened and would hang)")
	}
	if s.Timeline.Window < 0 {
		return fmt.Errorf("timeline: window must be non-negative, got %s", s.Timeline.Window)
	}
	if (s.Timeline.Window > 0 || s.hasTemporalAssertion()) && !s.hasWorkload(KindChaos) {
		return fmt.Errorf("timeline: the telemetry recorder attaches to chaos runs — add a chaos workload entry")
	}
	for i, f := range s.Faults {
		if err := s.validateFault(i, f); err != nil {
			return err
		}
	}
	if err := s.checkLinkOverlap(); err != nil {
		return err
	}
	for i, a := range s.Assertions {
		if err := s.validateAssertion(i, a); err != nil {
			return err
		}
	}
	return nil
}

// topology returns the topology with defaults applied.
func (s *Scenario) topology() Topology {
	t := s.Topology
	if t.CellNodes == 0 {
		t.CellNodes = 2
	}
	if t.CellsPerNode == 0 {
		t.CellsPerNode = 2
	}
	if s.Topology.CellNodes == 0 && s.Topology.XeonNodes == 0 {
		t.XeonNodes = 1
	}
	return t
}

// seed returns the scenario seed with the default applied.
func (s *Scenario) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

func (s *Scenario) hasWorkload(kind string) bool {
	for _, w := range s.Workloads {
		if w.Kind == kind {
			return true
		}
	}
	return false
}

func (s *Scenario) validateWorkload(i int, w Workload) error {
	what := fmt.Sprintf("workloads[%d] (%s)", i, w.Kind)
	switch w.Kind {
	case KindPingPong:
		for _, t := range w.Types {
			if t < 1 || t > 5 {
				return fmt.Errorf("%s: channel type %d out of range 1..5", what, t)
			}
		}
		if w.Bytes < 0 || w.Reps < 0 {
			return fmt.Errorf("%s: bytes and reps must be non-negative", what)
		}
	case KindChaos:
		if w.Bytes < 0 || w.Reps < 0 {
			return fmt.Errorf("%s: bytes and reps must be non-negative", what)
		}
		for _, seed := range w.Seeds {
			if seed < 0 {
				return fmt.Errorf("%s: negative chaos seed %d", what, seed)
			}
		}
		if w.SoftTimeout < 0 {
			return fmt.Errorf("%s: negative soft_timeout", what)
		}
		t := s.topology()
		if t.Nodes() < workload.ChaosNodes {
			return fmt.Errorf("%s: chaos pins traffic to %d nodes but the topology has %d",
				what, workload.ChaosNodes, t.Nodes())
		}
	case KindSizeSweep:
		for _, sz := range w.Sizes {
			if sz < 1 {
				return fmt.Errorf("%s: payload size %d must be positive", what, sz)
			}
		}
		if w.Reps < 0 {
			return fmt.Errorf("%s: reps must be non-negative", what)
		}
	case KindIMB:
		if _, err := imbPattern(w.effective(s.seed(), false).Pattern); err != nil {
			return fmt.Errorf("%s: %v", what, err)
		}
		if w.Ranks < 0 || w.Bytes < 0 || w.Reps < 0 {
			return fmt.Errorf("%s: ranks, bytes and reps must be non-negative", what)
		}
	default:
		return fmt.Errorf("%s: unknown workload kind", what)
	}
	if w.Transfer.ChunkSize < 0 || w.Transfer.PipelineDepth < 0 || w.Transfer.EagerMax < 0 {
		return fmt.Errorf("%s: transfer options must be non-negative", what)
	}
	return nil
}

func (s *Scenario) validateFault(i int, f FaultSpec) error {
	what := fmt.Sprintf("faults[%d] (%s)", i, f.Kind)
	t := s.topology()
	checkNode := func(node int) error {
		if node < 0 || node >= t.Nodes() {
			return fmt.Errorf("%s: node %d does not exist (topology has nodes 0..%d)", what, node, t.Nodes()-1)
		}
		return nil
	}
	checkProc := func(proc string) error {
		for _, p := range workload.ChaosSPEs() {
			if p == proc {
				return nil
			}
		}
		return fmt.Errorf("%s: proc %q is not a chaos SPE stub (valid: %s)",
			what, proc, strings.Join(workload.ChaosSPEs(), ", "))
	}
	switch f.Kind {
	case FaultCrashNode:
		if err := checkNode(f.Node); err != nil {
			return err
		}
		// Crashing node 0, 1 or 2 takes out the chaos endpoints wholesale;
		// that is a legitimate scenario, so only existence is checked.
	case FaultKillCoPilot:
		if err := checkNode(f.Node); err != nil {
			return err
		}
		if f.Node >= t.CellNodes {
			return fmt.Errorf("%s: node %d is an x86 node — only Cell blades (0..%d) run a Co-Pilot",
				what, f.Node, t.CellNodes-1)
		}
	case FaultKillSPE, FaultMailboxDrop:
		if err := checkProc(f.Proc); err != nil {
			return err
		}
	case FaultMailboxStall:
		if err := checkProc(f.Proc); err != nil {
			return err
		}
		if f.Delay <= 0 {
			return fmt.Errorf("%s: a stall needs a positive delay", what)
		}
	case FaultLossyLink:
		if err := checkNode(f.From); err != nil {
			return err
		}
		if err := checkNode(f.To); err != nil {
			return err
		}
		if f.From == f.To {
			return fmt.Errorf("%s: a link policy needs two distinct nodes, got %d -> %d", what, f.From, f.To)
		}
		for _, p := range []struct {
			name string
			v    float64
		}{{"drop_prob", f.DropProb}, {"corrupt_prob", f.CorruptProb}, {"delay_prob", f.DelayProb}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("%s: %s %g out of range [0, 1]", what, p.name, p.v)
			}
		}
		if f.DropProb == 0 && f.CorruptProb == 0 && f.DelayProb == 0 {
			return fmt.Errorf("%s: policy does nothing — set drop_prob, corrupt_prob or delay_prob", what)
		}
		if f.DelayProb > 0 && f.MaxDelay <= 0 {
			return fmt.Errorf("%s: delay_prob needs a positive max_delay", what)
		}
		if f.DelayProb == 0 && f.MaxDelay > 0 {
			return fmt.Errorf("%s: max_delay without delay_prob has no effect", what)
		}
	default:
		return fmt.Errorf("%s: unknown fault kind", what)
	}
	return nil
}

// checkLinkOverlap rejects two policies covering the same directed link:
// the injector keeps one policy per direction and would silently let the
// last one win, which turns a config mistake into a quiet behavior change.
func (s *Scenario) checkLinkOverlap() error {
	seen := map[[2]int]int{} // directed link -> faults index
	claim := func(from, to, idx int) error {
		k := [2]int{from, to}
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("faults[%d]: link %d -> %d already carries a policy from faults[%d] (one policy per directed link; merge them)",
				idx, from, to, prev)
		}
		seen[k] = idx
		return nil
	}
	for i, f := range s.Faults {
		if f.Kind != FaultLossyLink {
			continue
		}
		if err := claim(f.From, f.To, i); err != nil {
			return err
		}
		if f.Bidirectional {
			if err := claim(f.To, f.From, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Scenario) validateAssertion(i int, a Assertion) error {
	what := fmt.Sprintf("assertions[%d] (%s)", i, a.Kind)
	bind := map[string]string{
		AssertLatency: KindPingPong, AssertBandwidth: KindPingPong,
		AssertSpeedup:   KindSizeSweep,
		AssertCompleted: KindChaos, AssertFaults: KindChaos,
		AssertDegraded: KindChaos, AssertVirtualTime: KindChaos,
		AssertBlame: KindChaos, AssertContention: KindChaos,
		AssertWindow: KindChaos, AssertPeakBacklog: KindChaos,
		AssertRecoveryWithin: KindChaos, AssertFlow: KindChaos,
	}
	if kind, ok := bind[a.Kind]; ok {
		if a.Workload != "" && a.Workload != kind {
			return fmt.Errorf("%s: applies to the %s workload, not %q", what, kind, a.Workload)
		}
		if !s.hasWorkload(kind) {
			return fmt.Errorf("%s: scenario has no %s workload to check", what, kind)
		}
	}
	typed := func(lo, hi int) error {
		if a.Type < lo || a.Type > hi {
			return fmt.Errorf("%s: channel type %d out of range %d..%d", what, a.Type, lo, hi)
		}
		return nil
	}
	switch a.Kind {
	case AssertLatency:
		if err := typed(1, 5); err != nil {
			return err
		}
		if a.MaxOneWayUs <= 0 && a.MaxP99Us <= 0 {
			return fmt.Errorf("%s: set max_one_way_us and/or max_p99_us", what)
		}
	case AssertBandwidth:
		if err := typed(1, 5); err != nil {
			return err
		}
		if a.MinMBps <= 0 {
			return fmt.Errorf("%s: min_mbps must be positive", what)
		}
	case AssertSpeedup:
		if err := typed(1, 5); err != nil {
			return err
		}
		if a.Bytes <= 0 {
			return fmt.Errorf("%s: bytes selects the sweep point and must be positive", what)
		}
		if a.MinRatio <= 0 {
			return fmt.Errorf("%s: min_ratio must be positive", what)
		}
	case AssertCompleted:
		if err := typed(1, 5); err != nil {
			return err
		}
		if !a.Full && a.MinCompleted <= 0 {
			return fmt.Errorf("%s: set min or full: true", what)
		}
		if a.Full && a.MinCompleted > 0 {
			return fmt.Errorf("%s: full and min are mutually exclusive", what)
		}
	case AssertFaults:
		if len(a.Min) == 0 && len(a.Max) == 0 {
			return fmt.Errorf("%s: set at least one min/max counter bound", what)
		}
		for name, lo := range a.Min {
			if hi, ok := a.Max[name]; ok && hi < lo {
				return fmt.Errorf("%s: %s bounds are empty (min %d > max %d)", what, name, lo, hi)
			}
		}
	case AssertDegraded:
		if !a.Want && a.ErrorContains != "" {
			return fmt.Errorf("%s: error_contains needs want: true", what)
		}
	case AssertBlame:
		if err := typed(1, 5); err != nil {
			return err
		}
		if a.Stage == "" {
			return fmt.Errorf("%s: name the stage that must own the critical path", what)
		}
		if a.MinShare < 0 || a.MinShare > 1 {
			return fmt.Errorf("%s: min_share %g out of range [0, 1]", what, a.MinShare)
		}
	case AssertContention:
		if a.MinPairs <= 0 {
			return fmt.Errorf("%s: min_pairs must be positive", what)
		}
	case AssertDeterminism:
		if a.Runs < 0 || a.Runs == 1 {
			return fmt.Errorf("%s: runs must be at least 2 (default 2)", what)
		}
	case AssertVirtualTime:
		if a.MaxVirtual <= 0 {
			return fmt.Errorf("%s: set a positive max", what)
		}
	case AssertWindow:
		if a.Series == "" {
			return fmt.Errorf("%s: name the timeline series to bound", what)
		}
		if err := checkSeries(what, a.Series); err != nil {
			return err
		}
		if a.To != 0 && a.To <= a.From {
			return fmt.Errorf("%s: empty window range [%s, %s) (to must exceed from, or 0 for end of run)", what, a.From, a.To)
		}
		if a.MaxValue <= 0 && a.MinPeak <= 0 {
			return fmt.Errorf("%s: set max and/or min_peak", what)
		}
		if a.MaxValue > 0 && a.MinPeak > a.MaxValue {
			return fmt.Errorf("%s: bounds are empty (min_peak %g > max %g)", what, a.MinPeak, a.MaxValue)
		}
	case AssertPeakBacklog:
		if a.Type < 0 || a.Type > 5 {
			return fmt.Errorf("%s: channel type %d out of range 0..5 (0 = total)", what, a.Type)
		}
		if a.MaxBacklog <= 0 {
			return fmt.Errorf("%s: max must be positive", what)
		}
		if a.MinBacklog < 0 || a.MinBacklog > a.MaxBacklog {
			return fmt.Errorf("%s: bounds are empty (min %g, max %g)", what, a.MinBacklog, a.MaxBacklog)
		}
	case AssertRecoveryWithin:
		if a.Series != "" {
			if err := checkSeries(what, a.Series); err != nil {
				return err
			}
		}
		if a.MaxRecovery <= 0 {
			return fmt.Errorf("%s: set a positive max recovery time", what)
		}
		if !s.hasEventFault() {
			return fmt.Errorf("%s: recovery is measured from an injected fault — schedule at least one timed fault (crash-node, kill-spe, kill-copilot)", what)
		}
	case AssertFlow:
		if a.Route == "" && a.TopOf == "" {
			return fmt.Errorf("%s: set route (byte bounds) and/or top_of (top-contributor check)", what)
		}
		if a.Route != "" && !flowmap.ValidRoute(a.Route) {
			return fmt.Errorf("%s: unknown flow route %q (valid: %s)",
				what, a.Route, strings.Join(flowmap.Routes(), ", "))
		}
		if a.MinBytes < 0 || a.MaxBytes < 0 {
			return fmt.Errorf("%s: byte bounds must be non-negative", what)
		}
		if (a.MinBytes > 0 || a.MaxBytes > 0) && a.Route == "" {
			return fmt.Errorf("%s: byte bounds need a route to bound", what)
		}
		if a.MaxBytes > 0 && a.MinBytes > a.MaxBytes {
			return fmt.Errorf("%s: bounds are empty (min_bytes %d > max_bytes %d)", what, a.MinBytes, a.MaxBytes)
		}
		if a.TopOf != "" && a.Route == "" {
			return fmt.Errorf("%s: top_of needs a route the top contributor must travel", what)
		}
	default:
		return fmt.Errorf("%s: unknown assertion kind", what)
	}
	if a.Seed != 0 {
		found := false
		for _, w := range s.Workloads {
			if w.Kind != KindChaos {
				continue
			}
			for _, seed := range w.effective(s.seed(), false).Seeds {
				if seed == a.Seed {
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("%s: seed %d is not in the chaos workload's seed list", what, a.Seed)
		}
	}
	return nil
}

// checkSeries vets a timeline series name at validate time. Exact series
// names depend on the topology (link and mailbox series embed node and
// proc names), so the check is a vocabulary gate: the backlog series are
// matched exactly, everything else by its family prefix. A series that
// validates but never materializes in the run is an assertion violation,
// not a config error.
func checkSeries(what, name string) error {
	if name == "backlog/total" {
		return nil
	}
	for t := 1; t <= 5; t++ {
		if name == fmt.Sprintf("backlog/type%d", t) {
			return nil
		}
	}
	for _, prefix := range []string{"copilot/", "link/", "mailbox/", "fault/", "chan/", "net/", "flow/"} {
		if strings.HasPrefix(name, prefix) && len(name) > len(prefix) {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown timeline series %q (valid: backlog/total, backlog/type1..5, or a copilot/, link/, mailbox/, fault/, chan/, net/ or flow/ series)", what, name)
}

// hasEventFault reports whether the schedule contains a timed fault event
// the timeline marks (link policies and mailbox faults degrade throughput
// but do not anchor a recovery measurement).
func (s *Scenario) hasEventFault() bool {
	for _, f := range s.Faults {
		switch f.Kind {
		case FaultCrashNode, FaultKillSPE, FaultKillCoPilot:
			return true
		}
	}
	return false
}

// hasTemporalAssertion reports whether any assertion reads the timeline —
// which forces a recorder onto every chaos run.
func (s *Scenario) hasTemporalAssertion() bool {
	for _, a := range s.Assertions {
		switch a.Kind {
		case AssertWindow, AssertPeakBacklog, AssertRecoveryWithin:
			return true
		}
	}
	return false
}

// hasFlowAssertion reports whether any assertion reads the flow
// observatory — which forces a flowmap onto every chaos run. Temporal
// assertions over flow/* series count: those timeline series only
// materialize when a flowmap feeds the sampler.
func (s *Scenario) hasFlowAssertion() bool {
	for _, a := range s.Assertions {
		switch a.Kind {
		case AssertFlow:
			return true
		case AssertWindow, AssertRecoveryWithin:
			if strings.HasPrefix(a.Series, "flow/") {
				return true
			}
		}
	}
	return false
}

// lowerFaults compiles the scenario's fault schedule into the injector's
// plan. Validate has already vetted every target, so this is a pure
// translation; the plan's Seed is the scenario seed (the chaos driver
// re-stamps it per chaos seed when sweeping).
func (s *Scenario) lowerFaults() *fault.Plan {
	if len(s.Faults) == 0 {
		return nil
	}
	p := &fault.Plan{Seed: s.seed()}
	for _, f := range s.Faults {
		switch f.Kind {
		case FaultCrashNode:
			p.Events = append(p.Events, fault.Event{At: f.At, Kind: fault.CrashNode, Node: f.Node})
		case FaultKillCoPilot:
			p.Events = append(p.Events, fault.Event{At: f.At, Kind: fault.KillCoPilot, Node: f.Node})
		case FaultKillSPE:
			p.Events = append(p.Events, fault.Event{At: f.At, Kind: fault.KillSPE, Proc: f.Proc})
		case FaultMailboxDrop:
			p.Events = append(p.Events, fault.Event{At: f.At, Kind: fault.MailboxDrop, Proc: f.Proc})
		case FaultMailboxStall:
			p.Events = append(p.Events, fault.Event{At: f.At, Kind: fault.MailboxStall, Proc: f.Proc, Delay: f.Delay})
		case FaultLossyLink:
			pol := fault.LinkPolicy{
				From: f.From, To: f.To,
				DropProb: f.DropProb, CorruptProb: f.CorruptProb,
				DelayProb: f.DelayProb, MaxDelay: f.MaxDelay, After: f.After,
			}
			p.Links = append(p.Links, pol)
			if f.Bidirectional {
				rev := pol
				rev.From, rev.To = pol.To, pol.From
				p.Links = append(p.Links, rev)
			}
		}
	}
	return p
}

// counterValue resolves a fault-counter name against a Counts snapshot.
// With a nil receiver it only answers whether the name is valid — the
// decoder uses that to reject unknown counters at parse time.
func counterValue(c *fault.Counts, name string) (int64, bool) {
	var v int64
	switch name {
	case "link_drops":
		if c != nil {
			v = c.LinkDrops
		}
	case "link_corrupts":
		if c != nil {
			v = c.LinkCorrupts
		}
	case "link_delays":
		if c != nil {
			v = c.LinkDelays
		}
	case "retransmits":
		if c != nil {
			v = c.Retransmits
		}
	case "dup_frames":
		if c != nil {
			v = c.DupFrames
		}
	case "ack_drops":
		if c != nil {
			v = c.AckDrops
		}
	case "give_ups":
		if c != nil {
			v = c.GiveUps
		}
	case "give_up_drops":
		if c != nil {
			v = c.GiveUpDrops
		}
	case "mailbox_drops":
		if c != nil {
			v = c.MailboxDrops
		}
	case "mailbox_stalls":
		if c != nil {
			v = c.MailboxStalls
		}
	case "mailbox_nacks":
		if c != nil {
			v = c.MailboxNacks
		}
	case "mailbox_reposts":
		if c != nil {
			v = c.MailboxReposts
		}
	case "op_timeouts":
		if c != nil {
			v = c.OpTimeouts
		}
	case "channel_faults":
		if c != nil {
			v = c.ChannelFaults
		}
	case "procs_killed":
		if c != nil {
			v = c.ProcsKilled
		}
	default:
		return 0, false
	}
	return v, true
}

// counterNames lists every valid fault-counter name, sorted.
func counterNames() []string {
	names := []string{
		"link_drops", "link_corrupts", "link_delays",
		"retransmits", "dup_frames", "ack_drops", "give_ups", "give_up_drops",
		"mailbox_drops", "mailbox_stalls", "mailbox_nacks", "mailbox_reposts",
		"op_timeouts", "channel_faults", "procs_killed",
	}
	sort.Strings(names)
	return names
}
