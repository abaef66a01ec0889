// Package fault is the deterministic fault-injection layer for the
// simulated hybrid cluster. A Plan describes what goes wrong and when —
// scheduled on the sim kernel's virtual clock and drawn from a private
// seeded RNG, so a chaos run is exactly as reproducible as a clean one:
// the same seed yields the same fault log, the same virtual timeline and
// the same set of surviving processes.
//
// The injector is deliberately passive: it decides (kill this proc now,
// drop this frame, stall this mailbox word) and counts, while the runtime
// layers (interconnect/mpi/cellbe/core) own the recovery mechanics —
// retransmission, NACK/repost, channel poisoning. An injector with an
// empty plan changes nothing: every capability gate (UsesLinks,
// UsesMailbox, the event list) is off, and the instrumented run reproduces
// the uninstrumented virtual timeline bit for bit.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"cellpilot/internal/sim"
)

// Kind is one injectable fault class.
type Kind int

// Fault kinds.
const (
	// CrashNode kills every process on a node at Event.At.
	CrashNode Kind = iota
	// KillSPE kills one SPE process (by Pilot process name) at Event.At.
	KillSPE
	// KillCoPilot kills the Co-Pilot service process of a node at Event.At.
	KillCoPilot
	// MailboxDrop arms a one-shot fault: the named process's next outbound
	// mailbox word after Event.At is silently dropped.
	MailboxDrop
	// MailboxStall arms a one-shot fault: the named process's next outbound
	// mailbox word after Event.At is delayed by Event.Delay.
	MailboxStall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CrashNode:
		return "crash-node"
	case KillSPE:
		return "kill-spe"
	case KillCoPilot:
		return "kill-copilot"
	case MailboxDrop:
		return "mailbox-drop"
	case MailboxStall:
		return "mailbox-stall"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the fault fires.
	At sim.Time
	// Kind selects the fault class.
	Kind Kind
	// Node identifies the target node (CrashNode, KillCoPilot).
	Node int
	// Proc names the target Pilot process (KillSPE, MailboxDrop,
	// MailboxStall) as reported by Process.Name().
	Proc string
	// Delay is the stall duration (MailboxStall).
	Delay sim.Time
}

// LinkPolicy makes one directed internode link lossy. Probabilities are
// evaluated per frame from the injector's seeded RNG.
type LinkPolicy struct {
	// From and To are node ids; the policy covers frames From -> To.
	From, To int
	// DropProb is the probability a frame vanishes in flight.
	DropProb float64
	// CorruptProb is the probability a frame arrives corrupted (the
	// receiver discards it on checksum, so it behaves like a counted drop).
	CorruptProb float64
	// DelayProb is the probability a frame is delayed by a uniform random
	// time in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds the injected delay.
	MaxDelay sim.Time
	// After delays the policy's activation: before this virtual time the
	// link behaves perfectly and consumes no randomness. Zero means active
	// from the start. It lets a test land a link fault mid-transfer — e.g.
	// halfway through a chunked pipeline.
	After sim.Time
}

// Plan is a complete fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Seed feeds the injector's private RNG (link probabilities, delays).
	Seed int64
	// Events are scheduled faults; order does not matter.
	Events []Event
	// Links are the lossy-link policies.
	Links []LinkPolicy
}

// Verdict is the injector's decision about one frame on a lossy link.
type Verdict struct {
	Drop    bool
	Corrupt bool
	Delay   sim.Time
}

// Counts aggregates everything the fault layer saw and everything the
// hardened runtime did about it. The injector owns the link/mailbox
// counters; the mpi reliability layer bumps the retransmission group; core
// bumps the protocol/degradation group.
type Counts struct {
	// Injected link faults.
	LinkDrops    int64
	LinkCorrupts int64
	LinkDelays   int64
	// MPI reliability reactions.
	Retransmits int64 // frames resent after an ack timeout
	DupFrames   int64 // duplicate frames discarded (and re-acked) at the receiver
	AckDrops    int64 // acks lost to the reverse link's policy
	GiveUps     int64 // sender abandoned a frame after the retry cap; the link pair is severed
	GiveUpDrops int64 // frames discarded on an already-severed pair (queued or sent later)
	// Injected mailbox faults.
	MailboxDrops  int64
	MailboxStalls int64
	// Co-Pilot mailbox protocol reactions.
	MailboxNacks   int64 // Co-Pilot rejected a garbled/incomplete descriptor
	MailboxReposts int64 // SPE stub reposted a descriptor after a NACK or ack timeout
	// Degradation outcomes.
	OpTimeouts    int64 // channel operations that hit Options.OpTimeout or a Try* deadline
	ChannelFaults int64 // channels poisoned
	ProcsKilled   int64 // processes killed by injection (directly or by node crash)
}

// Counter is one Counts field under its snake_case name, the name of its
// fault/<name> metric and timeline series and of the scenario counter.
type Counter struct {
	Name string
	// Of returns the field in c.
	Of func(c *Counts) *int64
}

// Counters lists every Counts field, in struct-field order.
var Counters = []Counter{
	{"link_drops", func(c *Counts) *int64 { return &c.LinkDrops }},
	{"link_corrupts", func(c *Counts) *int64 { return &c.LinkCorrupts }},
	{"link_delays", func(c *Counts) *int64 { return &c.LinkDelays }},
	{"retransmits", func(c *Counts) *int64 { return &c.Retransmits }},
	{"dup_frames", func(c *Counts) *int64 { return &c.DupFrames }},
	{"ack_drops", func(c *Counts) *int64 { return &c.AckDrops }},
	{"give_ups", func(c *Counts) *int64 { return &c.GiveUps }},
	{"give_up_drops", func(c *Counts) *int64 { return &c.GiveUpDrops }},
	{"mailbox_drops", func(c *Counts) *int64 { return &c.MailboxDrops }},
	{"mailbox_stalls", func(c *Counts) *int64 { return &c.MailboxStalls }},
	{"mailbox_nacks", func(c *Counts) *int64 { return &c.MailboxNacks }},
	{"mailbox_reposts", func(c *Counts) *int64 { return &c.MailboxReposts }},
	{"op_timeouts", func(c *Counts) *int64 { return &c.OpTimeouts }},
	{"channel_faults", func(c *Counts) *int64 { return &c.ChannelFaults }},
	{"procs_killed", func(c *Counts) *int64 { return &c.ProcsKilled }},
}

// Injector executes a Plan against one run. Create one per run with
// NewInjector, set OnEvent (the runtime's kill callbacks), then Arm it on
// the kernel before the simulation starts.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	k     *sim.Kernel // set by Arm; clocks LinkPolicy.After activation
	links map[[2]int]LinkPolicy
	// pending one-shot mailbox verdicts by process name.
	mboxDrop  map[string]int
	mboxStall map[string][]sim.Time

	// OnEvent receives CrashNode/KillSPE/KillCoPilot events when they fire
	// (in scheduler context). The runtime installs its kill paths here
	// before Arm; a nil OnEvent makes those events log-only.
	OnEvent func(e Event)

	// Counts is bumped in place by the injector and the hardened layers.
	Counts Counts

	log []string
}

// NewInjector builds an injector for one run of the given plan.
func NewInjector(plan Plan) *Injector {
	in := &Injector{
		plan:      plan,
		rng:       rand.New(rand.NewSource(plan.Seed)),
		links:     map[[2]int]LinkPolicy{},
		mboxDrop:  map[string]int{},
		mboxStall: map[string][]sim.Time{},
	}
	for _, lp := range plan.Links {
		in.links[[2]int{lp.From, lp.To}] = lp
	}
	return in
}

// Plan returns the plan the injector runs.
func (in *Injector) Plan() Plan { return in.plan }

// Arm schedules every plan event on the kernel. Call once, before Run.
func (in *Injector) Arm(k *sim.Kernel) {
	in.k = k
	// Sort by (At, original order) so identical plans arm identically no
	// matter how the caller assembled the event list.
	evs := append([]Event(nil), in.plan.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, e := range evs {
		e := e
		k.After(e.At-k.Now(), func() { in.fire(k, e) })
	}
}

func (in *Injector) fire(k *sim.Kernel, e Event) {
	switch e.Kind {
	case MailboxDrop:
		in.mboxDrop[e.Proc]++
		in.Logf(k.Now(), "arm mailbox-drop for %s", e.Proc)
	case MailboxStall:
		in.mboxStall[e.Proc] = append(in.mboxStall[e.Proc], e.Delay)
		in.Logf(k.Now(), "arm mailbox-stall %s for %s", e.Delay, e.Proc)
	default:
		in.Logf(k.Now(), "%s node=%d proc=%s", e.Kind, e.Node, e.Proc)
		if in.OnEvent != nil {
			in.OnEvent(e)
		}
	}
}

// UsesLinks reports whether any lossy-link policy exists. The MPI layer
// gates its reliability protocol on this, so a plan without link faults
// leaves the transport timing untouched.
func (in *Injector) UsesLinks() bool { return len(in.links) > 0 }

// UsesMailbox reports whether the plan injects mailbox faults. The SPE
// stub / Co-Pilot ACK protocol is gated on this.
func (in *Injector) UsesMailbox() bool {
	for _, e := range in.plan.Events {
		if e.Kind == MailboxDrop || e.Kind == MailboxStall {
			return true
		}
	}
	return false
}

// LinkFaulty reports whether an active policy covers the directed node
// pair. It consumes no randomness, so it is safe to call from gating code.
func (in *Injector) LinkFaulty(from, to int) bool {
	lp, ok := in.links[[2]int{from, to}]
	return ok && in.linkActive(lp)
}

// linkActive reports whether a policy's After activation time has passed.
func (in *Injector) linkActive(lp LinkPolicy) bool {
	if lp.After == 0 {
		return true
	}
	return in.k != nil && in.k.Now() >= lp.After
}

// LinkVerdict draws the fate of one frame on the directed link. Only
// active faulty links consume randomness (and always exactly three draws),
// so verdict sequences are deterministic per link-policy set.
func (in *Injector) LinkVerdict(from, to, bytes int) Verdict {
	lp, ok := in.links[[2]int{from, to}]
	if !ok || !in.linkActive(lp) {
		return Verdict{}
	}
	pDrop, pCorrupt, pDelay := in.rng.Float64(), in.rng.Float64(), in.rng.Float64()
	var v Verdict
	switch {
	case pDrop < lp.DropProb:
		v.Drop = true
		in.Counts.LinkDrops++
	case pCorrupt < lp.CorruptProb:
		v.Corrupt = true
		in.Counts.LinkCorrupts++
	case pDelay < lp.DelayProb && lp.MaxDelay > 0:
		v.Delay = sim.Time(in.rng.Int63n(int64(lp.MaxDelay))) + 1
		in.Counts.LinkDelays++
	}
	return v
}

// MailboxVerdict consumes one pending one-shot mailbox fault for the named
// process, if armed. Drops win over stalls when both are pending.
func (in *Injector) MailboxVerdict(proc string) (drop bool, stall sim.Time) {
	if in.mboxDrop[proc] > 0 {
		in.mboxDrop[proc]--
		in.Counts.MailboxDrops++
		return true, 0
	}
	if st := in.mboxStall[proc]; len(st) > 0 {
		in.mboxStall[proc] = st[1:]
		in.Counts.MailboxStalls++
		return false, st[0]
	}
	return false, 0
}

// Logf appends one timestamped line to the fault log. A nil injector
// keeps no log, so a run without one may call Logf freely.
func (in *Injector) Logf(at sim.Time, format string, args ...any) {
	if in == nil {
		return
	}
	in.log = append(in.log, fmt.Sprintf("[%12s] %s", at, fmt.Sprintf(format, args...)))
}

// Log returns the fault log in firing order — part of a chaos run's
// determinism fingerprint.
func (in *Injector) Log() []string { return append([]string(nil), in.log...) }
