// Package scenario is the declarative chaos-regression DSL for the
// simulated hybrid cluster. One scenario names a topology (N Cell blades
// × M Cells + x86 nodes), a workload mix drawn from internal/workload
// (pingpong, chaos, sizesweep, IMB), a timed fault schedule lowered onto
// internal/fault, and a block of assertions checked after the run:
// latency/bandwidth bounds per channel type, fault-counter and
// degradation shape, critical-path blame attribution, contention pairs,
// and determinism fingerprints (same seed ⇒ bit-identical outcome).
//
// Scenarios live in YAML files (see scenarios/ and the parser subset in
// yaml.go) or are built directly in Go — the Scenario struct below IS
// the schema, every YAML key maps 1:1 onto a field. The checked-in
// library under scenarios/ is the regression fleet: `cellpilot-bench
// validate` runs every file and compares outcomes against committed
// golden fingerprints, so every robustness and observability investment
// stays load-bearing for future PRs.
package scenario

import (
	"fmt"
	"os"
	"strings"

	"cellpilot/internal/core"
	"cellpilot/internal/sim"
	"cellpilot/internal/workload"
)

// Scenario is one declarative chaos-regression case.
type Scenario struct {
	// Name identifies the scenario (kebab-case; golden files derive from it).
	Name string
	// Description is the one-line summary -list-scenarios prints.
	Description string
	// Seed feeds the fault injector's RNG and is the default chaos seed.
	// Zero means 1.
	Seed int64
	// Topology shapes the simulated cluster every workload runs on.
	Topology Topology
	// Workloads is the ordered traffic mix.
	Workloads []Workload
	// Faults is the timed fault schedule, lowered onto a fault.Plan and
	// injected into the chaos workload entries.
	Faults []FaultSpec
	// Timeline configures the windowed telemetry recorder chaos runs
	// attach. A recorder is also attached implicitly (at the default
	// window) whenever a temporal assertion is present.
	Timeline TimelineSpec
	// Assertions are checked against the run's outcome.
	Assertions []Assertion
}

// TimelineSpec configures the per-chaos-run telemetry timeline.
type TimelineSpec struct {
	// Window is the virtual-time bucket width (0 = the timeline package's
	// default, 100µs). Setting it attaches a recorder to every chaos run
	// even without temporal assertions, folding the timeline fingerprint
	// into the scenario fingerprint and goldens.
	Window sim.Time
}

// Topology describes the simulated cluster.
type Topology struct {
	// CellNodes is the number of Cell blades (default 2; the five-type
	// channel grid needs at least 2).
	CellNodes int
	// CellsPerNode is Cell processors per blade, 8 SPEs each (default 2,
	// the paper's dual PowerXCell 8i).
	CellsPerNode int
	// XeonNodes is the number of conventional x86 nodes (default 1).
	XeonNodes int
}

// Nodes is the total node count (Cell blades first, then x86).
func (t Topology) Nodes() int { return t.CellNodes + t.XeonNodes }

// Workload kinds.
const (
	KindPingPong  = "pingpong"
	KindChaos     = "chaos"
	KindSizeSweep = "sizesweep"
	KindIMB       = "imb"
)

// Workload is one entry of the traffic mix. Kind selects the driver;
// the other fields parameterize it (unused fields must stay zero — the
// decoder rejects keys that do not belong to the kind).
type Workload struct {
	// Kind is pingpong, chaos, sizesweep or imb.
	Kind string
	// Types are the Table I channel types a pingpong entry measures
	// (default 1..5).
	Types []int
	// Bytes is the payload size (pingpong default 1600, chaos default 256).
	Bytes int
	// Reps is round trips per type (pingpong default 100, chaos default
	// 20, sizesweep default 10, imb default 100).
	Reps int
	// Seeds are the chaos seeds to sweep (default: the scenario seed).
	Seeds []int64
	// SoftTimeout bounds every chaos channel operation (default 200ms).
	SoftTimeout sim.Time
	// Sizes are the sizesweep payload sizes (default 1 KiB and 64 KiB).
	Sizes []int
	// Pattern is the IMB pattern name (pingpong, pingping, sendrecv,
	// exchange, bcast, allreduce, barrier; default pingpong).
	Pattern string
	// Ranks is the IMB rank count (default: pattern-dependent).
	Ranks int
	// Transfer tunes the chunked transfer engine for pingpong, chaos and
	// sizesweep entries (zero = the paper-faithful protocol; sizesweep
	// defaults to 8 KiB chunks, depth 4, zero-copy type 4 for its
	// chunked arm).
	Transfer core.TransferOptions
}

// Fault kinds (the scenario-level vocabulary; lower.go maps them onto
// fault.Plan events and link policies).
const (
	FaultCrashNode    = "crash-node"
	FaultKillSPE      = "kill-spe"
	FaultKillCoPilot  = "kill-copilot"
	FaultMailboxDrop  = "mailbox-drop"
	FaultMailboxStall = "mailbox-stall"
	FaultLossyLink    = "lossy-link"
)

// FaultSpec is one scheduled fault or link policy.
type FaultSpec struct {
	// Kind selects the fault class (see the Fault* constants).
	Kind string
	// At is the virtual firing time (timed kinds; mailbox kinds arm at At).
	At sim.Time
	// Node targets crash-node / kill-copilot.
	Node int
	// Proc names the target SPE stub (kill-spe, mailbox-drop,
	// mailbox-stall) — must be one of workload.ChaosSPEs().
	Proc string
	// Delay is the stall duration (mailbox-stall).
	Delay sim.Time
	// From/To are the directed link's node ids (lossy-link).
	From, To int
	// Bidirectional mirrors the policy onto the reverse link too.
	Bidirectional bool
	// DropProb / CorruptProb / DelayProb are per-frame probabilities.
	DropProb, CorruptProb, DelayProb float64
	// MaxDelay bounds an injected frame delay (required with DelayProb).
	MaxDelay sim.Time
	// After delays the policy's activation — e.g. to tear a link halfway
	// through a chunked stream.
	After sim.Time
}

// Assertion kinds.
const (
	AssertLatency     = "latency"
	AssertBandwidth   = "bandwidth"
	AssertSpeedup     = "speedup"
	AssertCompleted   = "completed"
	AssertFaults      = "faults"
	AssertDegraded    = "degraded"
	AssertBlame       = "blame"
	AssertContention  = "contention"
	AssertDeterminism = "determinism"
	AssertVirtualTime = "virtual-time"
	// Temporal assertion kinds: checked against the chaos runs' telemetry
	// timeline (attached automatically when any of these is present).
	AssertWindow         = "window"
	AssertPeakBacklog    = "peak_backlog"
	AssertRecoveryWithin = "recovery_within"
	// AssertFlow checks the chaos runs' flow observatory (attached
	// automatically when present): per-route delivered-byte bounds and
	// the top contributor of a named resource (NIC or Co-Pilot).
	AssertFlow = "flow"
)

// Assertion is one post-run check. Kind selects the check; Workload
// binds it to a workload entry by kind (optional when the scenario has
// exactly one entry; determinism binds to the whole scenario).
type Assertion struct {
	Kind     string
	Workload string
	// Type is the Table I channel type the check applies to (latency,
	// bandwidth, speedup, completed, blame).
	Type int
	// Bytes selects the sizesweep point (speedup).
	Bytes int
	// MaxOneWayUs / MaxP99Us bound a pingpong type's latency (µs).
	MaxOneWayUs float64
	MaxP99Us    float64
	// MinMBps bounds a pingpong type's bandwidth from below.
	MinMBps float64
	// MinRatio bounds the chunked-vs-baseline p50 speedup (speedup).
	MinRatio float64
	// Min/Max bound fault counters by name (faults): link_drops,
	// retransmits, procs_killed, op_timeouts, ... — see counterValue.
	Min map[string]int64
	Max map[string]int64
	// MinCompleted / Full bound a chaos type's completed round trips;
	// Full means "all configured reps".
	MinCompleted int
	Full         bool
	// Want is the expected degradation state (degraded): true = the run
	// must return a fault summary, false = it must finish clean.
	Want bool
	// ErrorContains additionally greps the degradation error text.
	ErrorContains string
	// Stage names the critical-path stage that must own the type's tail
	// (blame); MinShare is its minimum share of the critical path.
	Stage    string
	MinShare float64
	// MinPairs bounds the victim/aggressor contention pairs (contention);
	// ResourcePrefix restricts which contended resource must appear.
	MinPairs       int
	ResourcePrefix string
	// Runs is the determinism re-run count (default 2).
	Runs int
	// MaxVirtual bounds a chaos run's final virtual clock (virtual-time) —
	// degradation must complete, not hang until a timeout horizon.
	MaxVirtual sim.Time
	// Series names the timeline series a temporal check reads (window,
	// recovery_within; see validSeries for the vocabulary). recovery_within
	// defaults to backlog/total.
	Series string
	// From/To bound the virtual-time range a window check covers
	// (To 0 = end of run).
	From, To sim.Time
	// MaxValue bounds every window value in [From, To) from above (window).
	MaxValue float64
	// MinPeak requires at least one window in [From, To) to reach this
	// value (window) — proves the series actually moved.
	MinPeak float64
	// MaxBacklog / MinBacklog bound the whole-run peak of a backlog series
	// (peak_backlog; Type selects backlog/typeN, 0 = backlog/total).
	MaxBacklog float64
	MinBacklog float64
	// MaxRecovery bounds how long after each injected fault the Series
	// takes to settle back to its pre-fault baseline (recovery_within).
	MaxRecovery sim.Time
	// Route names the flow route a flow assertion checks (one of
	// flowmap.Routes(), e.g. "spe->copilot->mpi->copilot->spe").
	Route string
	// MinBytes/MaxBytes bound the route's delivered payload bytes (flow;
	// MaxBytes 0 = unbounded above).
	MinBytes, MaxBytes int64
	// TopOf names a resource (NIC "nicN" or Co-Pilot rank label, e.g.
	// "copilot@cell1") whose top contributor must travel Route (flow).
	TopOf string
	// Seed restricts a chaos-bound check to one seed (0 = every seed).
	Seed int64
}

// Parse decodes and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	s, err := decodeScenario(tree)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func decodeScenario(tree *node) (*Scenario, error) {
	m, err := newMapReader(tree, "scenario")
	if err != nil {
		return nil, err
	}
	s := &Scenario{}
	if err := firstErr(
		m.strField("name", &s.Name),
		m.strField("description", &s.Description),
		m.int64Field("seed", &s.Seed),
	); err != nil {
		return nil, err
	}
	if n := m.get("topology"); n != nil {
		if err := decodeTopology(n, &s.Topology); err != nil {
			return nil, err
		}
	}
	if n := m.get("workloads"); n != nil {
		if n.kind != listNode {
			return nil, fmt.Errorf("line %d: workloads must be a list", n.line)
		}
		for i, el := range n.list {
			w, err := decodeWorkload(el, i)
			if err != nil {
				return nil, err
			}
			s.Workloads = append(s.Workloads, w)
		}
	}
	if n := m.get("faults"); n != nil {
		if n.kind != listNode {
			return nil, fmt.Errorf("line %d: faults must be a list", n.line)
		}
		for i, el := range n.list {
			f, err := decodeFault(el, i)
			if err != nil {
				return nil, err
			}
			s.Faults = append(s.Faults, f)
		}
	}
	if n := m.get("timeline"); n != nil {
		if err := decodeTimeline(n, &s.Timeline); err != nil {
			return nil, err
		}
	}
	if n := m.get("assertions"); n != nil {
		if n.kind != listNode {
			return nil, fmt.Errorf("line %d: assertions must be a list", n.line)
		}
		for i, el := range n.list {
			a, err := decodeAssertion(el, i)
			if err != nil {
				return nil, err
			}
			s.Assertions = append(s.Assertions, a)
		}
	}
	return s, m.finish()
}

func decodeTopology(n *node, t *Topology) error {
	m, err := newMapReader(n, "topology")
	if err != nil {
		return err
	}
	if err := firstErr(
		m.intField("cell_nodes", &t.CellNodes),
		m.intField("cells_per_node", &t.CellsPerNode),
		m.intField("xeon_nodes", &t.XeonNodes),
	); err != nil {
		return err
	}
	return m.finish()
}

func decodeTimeline(n *node, t *TimelineSpec) error {
	m, err := newMapReader(n, "timeline")
	if err != nil {
		return err
	}
	if err := m.durField("window", &t.Window); err != nil {
		return err
	}
	return m.finish()
}

func decodeWorkload(n *node, idx int) (Workload, error) {
	what := fmt.Sprintf("workloads[%d]", idx)
	m, err := newMapReader(n, what)
	if err != nil {
		return Workload{}, err
	}
	var w Workload
	if err := m.strField("kind", &w.Kind); err != nil {
		return Workload{}, err
	}
	if w.Kind == "" {
		return Workload{}, fmt.Errorf("line %d: %s needs a kind", n.line, what)
	}
	// Per-kind keys: consuming only the kind's own keys makes a stray
	// key ("sizes" on a chaos entry) an unknown-key error.
	var errs []error
	switch w.Kind {
	case KindPingPong:
		if tn := m.get("types"); tn != nil {
			w.Types, err = tn.intList(what + ".types")
			errs = append(errs, err)
		}
		errs = append(errs,
			m.intField("bytes", &w.Bytes),
			m.intField("reps", &w.Reps),
			decodeTransfer(m, what, &w.Transfer))
	case KindChaos:
		if sn := m.get("seeds"); sn != nil {
			w.Seeds, err = sn.int64List(what + ".seeds")
			errs = append(errs, err)
		}
		errs = append(errs,
			m.intField("bytes", &w.Bytes),
			m.intField("reps", &w.Reps),
			m.durField("soft_timeout", &w.SoftTimeout),
			decodeTransfer(m, what, &w.Transfer))
	case KindSizeSweep:
		if sn := m.get("sizes"); sn != nil {
			w.Sizes, err = sn.intList(what + ".sizes")
			errs = append(errs, err)
		}
		errs = append(errs,
			m.intField("reps", &w.Reps),
			decodeTransfer(m, what, &w.Transfer))
	case KindIMB:
		errs = append(errs,
			m.strField("pattern", &w.Pattern),
			m.intField("ranks", &w.Ranks),
			m.intField("bytes", &w.Bytes),
			m.intField("reps", &w.Reps))
	default:
		return Workload{}, fmt.Errorf("line %d: %s: unknown workload kind %q (valid: %s)",
			n.line, what, w.Kind, strings.Join([]string{KindPingPong, KindChaos, KindSizeSweep, KindIMB}, ", "))
	}
	if err := firstErr(errs...); err != nil {
		return Workload{}, err
	}
	return w, m.finish()
}

func decodeTransfer(m *mapReader, what string, t *core.TransferOptions) error {
	n := m.get("transfer")
	if n == nil {
		return nil
	}
	tm, err := newMapReader(n, what+".transfer")
	if err != nil {
		return err
	}
	if err := firstErr(
		tm.intField("chunk_size", &t.ChunkSize),
		tm.intField("pipeline_depth", &t.PipelineDepth),
		tm.boolField("zero_copy_type4", &t.ZeroCopyType4),
	); err != nil {
		return err
	}
	return tm.finish()
}

func decodeFault(n *node, idx int) (FaultSpec, error) {
	what := fmt.Sprintf("faults[%d]", idx)
	m, err := newMapReader(n, what)
	if err != nil {
		return FaultSpec{}, err
	}
	var f FaultSpec
	if err := m.strField("kind", &f.Kind); err != nil {
		return FaultSpec{}, err
	}
	var errs []error
	switch f.Kind {
	case FaultCrashNode, FaultKillCoPilot:
		errs = append(errs,
			m.durField("at", &f.At),
			m.intField("node", &f.Node))
	case FaultKillSPE, FaultMailboxDrop:
		errs = append(errs,
			m.durField("at", &f.At),
			m.strField("proc", &f.Proc))
	case FaultMailboxStall:
		errs = append(errs,
			m.durField("at", &f.At),
			m.strField("proc", &f.Proc),
			m.durField("delay", &f.Delay))
	case FaultLossyLink:
		errs = append(errs,
			m.intField("from", &f.From),
			m.intField("to", &f.To),
			m.boolField("bidirectional", &f.Bidirectional),
			m.floatField("drop_prob", &f.DropProb),
			m.floatField("corrupt_prob", &f.CorruptProb),
			m.floatField("delay_prob", &f.DelayProb),
			m.durField("max_delay", &f.MaxDelay),
			m.durField("after", &f.After))
	default:
		return FaultSpec{}, fmt.Errorf("line %d: %s: unknown fault kind %q (valid: %s)",
			n.line, what, f.Kind, strings.Join(faultKinds(), ", "))
	}
	if err := firstErr(errs...); err != nil {
		return FaultSpec{}, err
	}
	return f, m.finish()
}

func faultKinds() []string {
	return []string{FaultCrashNode, FaultKillSPE, FaultKillCoPilot,
		FaultMailboxDrop, FaultMailboxStall, FaultLossyLink}
}

func decodeAssertion(n *node, idx int) (Assertion, error) {
	what := fmt.Sprintf("assertions[%d]", idx)
	m, err := newMapReader(n, what)
	if err != nil {
		return Assertion{}, err
	}
	var a Assertion
	if err := firstErr(
		m.strField("kind", &a.Kind),
		m.strField("workload", &a.Workload),
	); err != nil {
		return Assertion{}, err
	}
	var errs []error
	switch a.Kind {
	case AssertLatency:
		errs = append(errs,
			m.intField("type", &a.Type),
			m.floatField("max_one_way_us", &a.MaxOneWayUs),
			m.floatField("max_p99_us", &a.MaxP99Us))
	case AssertBandwidth:
		errs = append(errs,
			m.intField("type", &a.Type),
			m.floatField("min_mbps", &a.MinMBps))
	case AssertSpeedup:
		errs = append(errs,
			m.intField("type", &a.Type),
			m.intField("bytes", &a.Bytes),
			m.floatField("min_ratio", &a.MinRatio))
	case AssertCompleted:
		errs = append(errs,
			m.intField("type", &a.Type),
			m.intField("min", &a.MinCompleted),
			m.boolField("full", &a.Full),
			m.int64Field("seed", &a.Seed))
	case AssertFaults:
		var err1, err2 error
		a.Min, err1 = decodeCounterMap(m, what, "min")
		a.Max, err2 = decodeCounterMap(m, what, "max")
		errs = append(errs, err1, err2, m.int64Field("seed", &a.Seed))
	case AssertDegraded:
		errs = append(errs,
			m.boolField("want", &a.Want),
			m.strField("error_contains", &a.ErrorContains),
			m.int64Field("seed", &a.Seed))
	case AssertBlame:
		errs = append(errs,
			m.intField("type", &a.Type),
			m.strField("stage", &a.Stage),
			m.floatField("min_share", &a.MinShare))
	case AssertContention:
		errs = append(errs,
			m.intField("min_pairs", &a.MinPairs),
			m.strField("resource_prefix", &a.ResourcePrefix))
	case AssertDeterminism:
		errs = append(errs, m.intField("runs", &a.Runs))
	case AssertVirtualTime:
		errs = append(errs,
			m.durField("max", &a.MaxVirtual),
			m.int64Field("seed", &a.Seed))
	case AssertWindow:
		errs = append(errs,
			m.strField("series", &a.Series),
			m.durField("from", &a.From),
			m.durField("to", &a.To),
			m.floatField("max", &a.MaxValue),
			m.floatField("min_peak", &a.MinPeak),
			m.int64Field("seed", &a.Seed))
	case AssertPeakBacklog:
		errs = append(errs,
			m.intField("type", &a.Type),
			m.floatField("max", &a.MaxBacklog),
			m.floatField("min", &a.MinBacklog),
			m.int64Field("seed", &a.Seed))
	case AssertRecoveryWithin:
		errs = append(errs,
			m.strField("series", &a.Series),
			m.durField("max", &a.MaxRecovery),
			m.int64Field("seed", &a.Seed))
	case AssertFlow:
		errs = append(errs,
			m.strField("route", &a.Route),
			m.int64Field("min_bytes", &a.MinBytes),
			m.int64Field("max_bytes", &a.MaxBytes),
			m.strField("top_of", &a.TopOf),
			m.int64Field("seed", &a.Seed))
	default:
		return Assertion{}, fmt.Errorf("line %d: %s: unknown assertion kind %q (valid: %s)",
			n.line, what, a.Kind, strings.Join(assertionKinds(), ", "))
	}
	if err := firstErr(errs...); err != nil {
		return Assertion{}, err
	}
	return a, m.finish()
}

func assertionKinds() []string {
	return []string{AssertLatency, AssertBandwidth, AssertSpeedup, AssertCompleted,
		AssertFaults, AssertDegraded, AssertBlame, AssertContention,
		AssertDeterminism, AssertVirtualTime,
		AssertWindow, AssertPeakBacklog, AssertRecoveryWithin, AssertFlow}
}

func decodeCounterMap(m *mapReader, what, key string) (map[string]int64, error) {
	n := m.get(key)
	if n == nil {
		return nil, nil
	}
	cm, err := newMapReader(n, what+"."+key)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, k := range n.keys {
		if _, ok := counterValue(nil, k); !ok {
			return nil, fmt.Errorf("line %d: %s.%s: unknown fault counter %q (valid: %s)",
				n.fields[k].line, what, key, k, strings.Join(counterNames(), ", "))
		}
		v, err := n.fields[k].int64(what + "." + key + "." + k)
		if err != nil {
			return nil, err
		}
		cm.used[k] = true
		out[k] = v
	}
	return out, cm.finish()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// effective returns the workload with defaults applied and, in quick
// mode, the long measurement arms shrunk to bound validate's runtime.
// Chaos reps stay untouched — they are cheap and the fault arithmetic of
// committed assertions depends on them.
func (w Workload) effective(seed int64, quick bool) Workload {
	switch w.Kind {
	case KindPingPong:
		if len(w.Types) == 0 {
			w.Types = []int{1, 2, 3, 4, 5}
		}
		if w.Bytes == 0 {
			w.Bytes = 1600
		}
		if w.Reps == 0 {
			w.Reps = 100
		}
		if quick && w.Reps > 30 {
			w.Reps = 30
		}
	case KindChaos:
		if w.Bytes == 0 {
			w.Bytes = 256
		}
		if w.Reps == 0 {
			w.Reps = 20
		}
		if len(w.Seeds) == 0 {
			w.Seeds = []int64{seed}
		}
	case KindSizeSweep:
		if len(w.Sizes) == 0 {
			w.Sizes = []int{1024, 65536}
		}
		if w.Reps == 0 {
			w.Reps = 10
		}
		if quick && w.Reps > 5 {
			w.Reps = 5
		}
	case KindIMB:
		if w.Pattern == "" {
			w.Pattern = "pingpong"
		}
		if w.Bytes == 0 {
			w.Bytes = 1600
		}
		if w.Reps == 0 {
			w.Reps = 100
		}
		if quick && w.Reps > 25 {
			w.Reps = 25
		}
	}
	return w
}

// imbPattern maps the YAML pattern name onto the workload constant.
func imbPattern(name string) (workload.IMBPattern, error) {
	switch name {
	case "pingpong":
		return workload.IMBPingPong, nil
	case "pingping":
		return workload.IMBPingPing, nil
	case "sendrecv":
		return workload.IMBSendRecv, nil
	case "exchange":
		return workload.IMBExchange, nil
	case "bcast":
		return workload.IMBBcast, nil
	case "allreduce":
		return workload.IMBAllreduce, nil
	case "barrier":
		return workload.IMBBarrier, nil
	}
	return 0, fmt.Errorf("unknown IMB pattern %q (valid: pingpong, pingping, sendrecv, exchange, bcast, allreduce, barrier)", name)
}
