// Package core implements Pilot and its CellPilot extension on the
// simulated hybrid cluster: the two-phase process/channel programming
// model, the stdio-style Read/Write API, bundles (broadcast, gather,
// select), SPE process launch, the per-Cell-node Co-Pilot service process,
// and the five channel-type transfer protocols of the paper's Table I.
package core

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/mpi"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// Options configure an App.
type Options struct {
	// DeadlockDetection enables the Pilot deadlock service (the paper's
	// "-pisvc=d"), which consumes one extra MPI rank.
	DeadlockDetection bool
	// Placement overrides the default round-robin node assignment for
	// regular processes: it receives the process id and node count and
	// returns a node index. PI_MAIN (id 0) is also consulted.
	Placement func(procID, nodes int) int
	// CoPilotDirectLocal is the A1 ablation: route the PPE↔Co-Pilot leg of
	// type-2 channels through a direct shared-memory copy instead of local
	// MPI (the speed-up the paper's Section V analysis suggests).
	CoPilotDirectLocal bool
	// SPECollectives implements the paper's first future-work item:
	// bundles whose member channels have SPE endpoints (the common
	// endpoint stays a regular process, which broadcasts to / gathers
	// from / selects over a mixture of SPE and other processes).
	SPECollectives bool
	// SPEDeadlock implements the paper's second future-work item: SPE
	// channel operations also report to the deadlock service, so circular
	// waits involving SPE processes are diagnosed too. Requires
	// DeadlockDetection.
	SPEDeadlock bool
	// CoPilotPerCell is the A4 ablation: one Co-Pilot rank per Cell
	// processor instead of the paper's one per node. A dual-Cell blade
	// then services its two SPE groups in parallel (each Cell's spare PPE
	// hardware thread hosts one), at the cost of an extra MPI rank.
	CoPilotPerCell bool
	// OpTimeout bounds every blocking channel operation (0 = unbounded,
	// the classic Pilot behaviour). An operation that exceeds it fails
	// with a ChannelFault whose diagnostic says whether the operation was
	// part of a detected wait cycle or merely slow/faulted; the failing
	// process unwinds and Run returns a FaultSummary.
	OpTimeout sim.Time
	// Faults attaches a fault injector (internal/fault) for chaos runs.
	// An injector with an empty plan changes nothing — the virtual
	// timeline stays bit-identical to a run without one.
	Faults *fault.Injector
	// Transfer tunes the chunked transfer engine (transfer.go). The zero
	// value disables it and keeps the virtual timeline bit-identical to the
	// pre-engine paths.
	Transfer TransferOptions
	// FlightDepth sizes the always-on flight-recorder ring of recent
	// phase events stitched into fault diagnostics (0 selects
	// trace.DefaultFlightDepth; negative is a configuration error).
	FlightDepth int
}

type phase int

const (
	phaseConfig phase = iota
	phaseExec
	phaseDone
)

// App is one Pilot application: configuration tables plus the runtime.
// Build it over a fresh cluster, define processes and channels
// (configuration phase), then Run the execution phase to completion.
type App struct {
	Clu  *cluster.Cluster
	K    *sim.Kernel
	par  *cellbe.Params
	opts Options

	phase    phase
	procs    []*Process
	regulars []*Process
	chans    []*Channel
	bundles  []*Bundle
	speUsed  map[int]int // nodeID -> SPEs reserved

	world *mpi.World
	// Co-Pilots are keyed by (node, cell); with the default one-per-node
	// design the cell component is always 0. copilotOrder fixes a
	// deterministic iteration order (rank order) for spawning and nudging.
	copilots     map[copilotKey]*copilot
	copilotRank  map[copilotKey]int
	copilotOrder []copilotKey
	svc          *svcState

	// Fault-layer state (see fault.go); all empty in clean runs.
	chanWaiters        map[int][]*sim.Proc
	faults             []*ChannelFault
	killed             []string
	opTimeouts         int64
	faultMetricsPushed bool

	userLive int
	allDone  *sim.Event

	directBoxes map[int]*sim.Queue[dbMsg]

	// speDMA holds one MFC DMA-engine resource per SPE (lazily created by
	// dmaRes); the chunk pipeline books LS↔EA moves on it so they overlap
	// the Co-Pilot's per-chunk stack work.
	speDMA map[*cellbe.SPE]*sim.Resource

	// Observability side-band state (see observe.go): the transfer-id
	// counter and the per-SPE in-flight request records that correlate
	// mailbox requests with Co-Pilot service into spans.
	lastXfer int64
	spePosts map[int]spePost
	speDone  map[int]int64

	// obs is the sink set snapshotted from the public fields when Run
	// starts; recording goes through it, so late attachment is inert.
	obs obsSinks
	// flight is the always-on bounded ring of recent phase events; its
	// tail is stitched into fault diagnostics.
	flight *trace.Flight
	// backoff accumulates per-process fault-repost time pending profiler
	// attribution (see noteBackoff).
	backoff map[string]sim.Time

	// Logf, when set, receives trace lines from Ctx.Log and SPECtx.Log
	// prefixed with virtual time and process identity.
	Logf func(format string, args ...any)
	// Trace, when set, records every completed channel operation and the
	// phases inside it (at zero virtual-time cost, so traced runs keep
	// calibrated timings). Attach before Run (or via SetTrace, which
	// reports misuse): Run snapshots the sinks, so a later write to this
	// field records nothing.
	Trace *trace.Recorder
	// Metrics, when set, aggregates per-channel-type histograms, Co-Pilot
	// queue statistics and per-process blocked-time attribution, surfaced
	// through Stats. Also free of virtual-time cost. Attach before Run.
	Metrics *Meter
	// Profile, when set, folds every process's virtual timeline into
	// exclusive attribution buckets (internal/profile) exportable as
	// folded stacks or pprof. Also free of virtual-time cost. Attach
	// before Run.
	Profile *profile.Profiler
	// HostProf, when set, measures what the run costs on the host:
	// wall-clock kernel counters (events, heap traffic) and per-subsystem
	// host-time attribution (internal/hostprof). It rides strictly outside
	// the virtual timeline — virtual results and chaos fingerprints stay
	// bit-for-bit identical with it attached. Attach before Run.
	HostProf *hostprof.Profiler
	// Timeline, when set, buckets live telemetry (Co-Pilot utilization,
	// link saturation, per-type backlog, fault counters, ...) into fixed
	// virtual-time windows via the kernel's clock hook
	// (internal/timeline), surfaced through Stats().Timeline. Also free
	// of virtual-time cost. Attach before Run.
	Timeline *timeline.Recorder
	// Flows, when set, classifies every delivered message into a flow
	// (src proc, dst proc, channel type, route) and aggregates the
	// node×node traffic matrix, per-hop attribution, and heavy-hitter
	// table (internal/flowmap), surfaced through Stats().Flows. Also free
	// of virtual-time cost. Attach before Run.
	Flows *flowmap.Map
}

// NewApp starts the configuration phase on a cluster. The PI_MAIN process
// (id 0, rank 0) is created implicitly.
func NewApp(c *cluster.Cluster, opts Options) *App {
	a := &App{
		Clu:         c,
		K:           c.K,
		par:         c.Params,
		opts:        opts,
		speUsed:     map[int]int{},
		copilots:    map[copilotKey]*copilot{},
		copilotRank: map[copilotKey]int{},
		spePosts:    map[int]spePost{},
		speDone:     map[int]int64{},
		flight:      trace.NewFlight(opts.FlightDepth),
	}
	if opts.FlightDepth < 0 {
		panic(usageError(callerLoc(1), "NewApp", "FlightDepth must be >= 0 (0 selects the default depth)"))
	}
	if opts.SPEDeadlock && !opts.DeadlockDetection {
		panic(usageError(callerLoc(1), "NewApp", "SPEDeadlock requires DeadlockDetection"))
	}
	a.allDone = sim.NewEvent(c.K, "pilot/all-done")
	main := &Process{app: a, id: 0, name: "PI_MAIN", kind: KindRegular, nodeID: a.placeRegular(0)}
	a.procs = append(a.procs, main)
	a.regulars = append(a.regulars, main)
	return a
}

func (a *App) placeRegular(procID int) int {
	if a.opts.Placement != nil {
		n := a.opts.Placement(procID, len(a.Clu.Nodes))
		if n < 0 || n >= len(a.Clu.Nodes) {
			panic(fmt.Sprintf("core: Placement returned node %d of %d", n, len(a.Clu.Nodes)))
		}
		return n
	}
	return procID % len(a.Clu.Nodes)
}

// Main returns the PI_MAIN process.
func (a *App) Main() *Process { return a.procs[0] }

// Flight returns the always-on flight recorder: the bounded ring of the
// run's most recent transfer-phase events.
func (a *App) Flight() *trace.Flight { return a.flight }

// ProcNodes maps every trace track label — process names and Co-Pilot rank
// labels — to the node it runs on. The critical-path analyzer uses it to
// fold wire-occupying phases into per-node link resources, so MPI stages
// split into service vs link queueing.
func (a *App) ProcNodes() map[string]int {
	nodes := make(map[string]int, len(a.procs)+len(a.copilotOrder))
	for _, p := range a.procs {
		nodes[p.String()] = p.nodeID
	}
	for _, key := range a.copilotOrder {
		if cp := a.copilots[key]; cp != nil {
			nodes[cp.rank.Label()] = key.node
		}
	}
	return nodes
}

// attachErr shapes the configuration error the checked sink setters
// return when Run has already started.
func (a *App) attachErr(api string) error {
	if a.phase == phaseConfig {
		return nil
	}
	return fmt.Errorf("pilot: %s: observability sinks must be attached in the configuration phase, before Run starts (attaching later would race with recording)", api)
}

// SetTrace attaches the span recorder, rejecting the attachment with a
// configuration error once Run has started (a late attach through the
// public field is inert; through here it is diagnosed).
func (a *App) SetTrace(rec *trace.Recorder) error {
	if err := a.attachErr("SetTrace"); err != nil {
		return err
	}
	a.Trace = rec
	return nil
}

// SetMetrics attaches the meter, with the same configuration-phase check
// as SetTrace.
func (a *App) SetMetrics(m *Meter) error {
	if err := a.attachErr("SetMetrics"); err != nil {
		return err
	}
	a.Metrics = m
	return nil
}

// SetProfile attaches the virtual-time profiler, with the same
// configuration-phase check as SetTrace.
func (a *App) SetProfile(p *profile.Profiler) error {
	if err := a.attachErr("SetProfile"); err != nil {
		return err
	}
	a.Profile = p
	return nil
}

// SetHostProf attaches the wall-clock (host-cost) profiler, with the same
// configuration-phase check as SetTrace.
func (a *App) SetHostProf(p *hostprof.Profiler) error {
	if err := a.attachErr("SetHostProf"); err != nil {
		return err
	}
	a.HostProf = p
	return nil
}

// SetTimeline attaches the windowed telemetry recorder, with the same
// configuration-phase check as SetTrace.
func (a *App) SetTimeline(tl *timeline.Recorder) error {
	if err := a.attachErr("SetTimeline"); err != nil {
		return err
	}
	a.Timeline = tl
	return nil
}

// SetFlows attaches the flow observatory, with the same
// configuration-phase check as SetTrace.
func (a *App) SetFlows(f *flowmap.Map) error {
	if err := a.attachErr("SetFlows"); err != nil {
		return err
	}
	a.Flows = f
	return nil
}

// Processes returns all processes in creation order.
func (a *App) Processes() []*Process { return a.procs }

// Channels returns all channels in creation order.
func (a *App) Channels() []*Channel { return a.chans }

// configOnly guards configuration-phase APIs. Configuration runs on the
// host goroutine (before the simulation starts), so misuse panics with the
// Pilot diagnostic rather than aborting a simulation that isn't running.
func (a *App) configOnly(api string) {
	if a.phase != phaseConfig {
		panic(usageError(callerLoc(2), api, "only allowed in the configuration phase"))
	}
}

// CreateProcess defines a regular Pilot process running fn(index, arg)
// during the execution phase (PI_CreateProcess).
func (a *App) CreateProcess(name string, fn ProcessFunc, index int, arg any) *Process {
	a.configOnly("PI_CreateProcess")
	if fn == nil {
		panic(usageError(callerLoc(1), "PI_CreateProcess", "nil process function"))
	}
	p := &Process{
		app: a, id: len(a.procs), name: name, kind: KindRegular,
		fn: fn, index: index, arg: arg,
	}
	p.rank = len(a.regulars)
	p.nodeID = a.placeRegular(p.id)
	a.procs = append(a.procs, p)
	a.regulars = append(a.regulars, p)
	return p
}

// CreateProcessOn is CreateProcess with an explicit node placement, the
// equivalent of the mpirun host mapping the paper describes.
func (a *App) CreateProcessOn(node int, name string, fn ProcessFunc, index int, arg any) *Process {
	a.configOnly("PI_CreateProcess")
	if node < 0 || node >= len(a.Clu.Nodes) {
		panic(usageError(callerLoc(1), "PI_CreateProcess", "no node %d in a %d-node cluster", node, len(a.Clu.Nodes)))
	}
	p := a.CreateProcess(name, fn, index, arg)
	p.nodeID = node
	return p
}

// CreateSPE defines an SPE process (PI_CreateSPE): prog will run on an SPE
// of the parent process's Cell node, but stays dormant until the parent
// calls RunSPE during its execution phase.
func (a *App) CreateSPE(prog *SPEProgram, parent *Process, index int) *Process {
	a.configOnly("PI_CreateSPE")
	loc := callerLoc(1)
	if prog == nil || prog.Body == nil {
		panic(usageError(loc, "PI_CreateSPE", "nil SPE program"))
	}
	if parent == nil {
		panic(usageError(loc, "PI_CreateSPE", "nil parent process"))
	}
	if parent.IsSPE() {
		panic(usageError(loc, "PI_CreateSPE", "parent %s is an SPE process; SPE processes are controlled by a PPE process", parent))
	}
	node := a.Clu.Nodes[parent.nodeID]
	if node.Arch != cellbe.ArchCell {
		panic(usageError(loc, "PI_CreateSPE", "parent %s runs on %s, which has no SPEs", parent, node.Name))
	}
	used := a.speUsed[parent.nodeID]
	if used >= len(node.SPEs()) {
		panic(usageError(loc, "PI_CreateSPE", "node %s has only %d SPEs; all are reserved", node.Name, len(node.SPEs())))
	}
	a.speUsed[parent.nodeID] = used + 1
	p := &Process{
		app: a, id: len(a.procs),
		name:   fmt.Sprintf("%s#%d", prog.Name, index),
		kind:   KindSPE,
		prog:   prog,
		parent: parent,
		index:  index,
		nodeID: parent.nodeID,
		speIdx: used,
	}
	a.procs = append(a.procs, p)
	return p
}

// CreateChannel binds a unidirectional channel to a process pair
// (PI_CreateChannel). The channel type (Table I) is resolved here and is
// invisible to the programmer.
func (a *App) CreateChannel(from, to *Process) *Channel {
	a.configOnly("PI_CreateChannel")
	loc := callerLoc(1)
	if from == nil || to == nil {
		panic(usageError(loc, "PI_CreateChannel", "nil endpoint"))
	}
	if from == to {
		panic(usageError(loc, "PI_CreateChannel", "%s cannot be both endpoints", from))
	}
	ch := &Channel{app: a, id: len(a.chans), From: from, To: to, typ: resolveType(from, to)}
	a.chans = append(a.chans, ch)
	return ch
}

// CreateBundle groups channels sharing a common endpoint for one specific
// collective usage (PI_CreateBundle). As in the paper, bundle operations
// are not yet available to SPE processes.
func (a *App) CreateBundle(kind BundleKind, chans []*Channel) *Bundle {
	a.configOnly("PI_CreateBundle")
	loc := callerLoc(1)
	if len(chans) == 0 {
		panic(usageError(loc, "PI_CreateBundle", "empty channel list"))
	}
	var common *Process
	for _, ch := range chans {
		if (ch.From.IsSPE() || ch.To.IsSPE()) && !a.opts.SPECollectives {
			panic(usageError(loc, "PI_CreateBundle",
				"%s has an SPE endpoint; collective operations on SPE processes are not supported (CellPilot future work; enable Options.SPECollectives)", ch))
		}
		end := ch.From // broadcast/scatter: common endpoint writes
		role := "writer"
		if kind == BundleGather || kind == BundleSelect || kind == BundleReduce {
			end = ch.To
			role = "reader"
		}
		if end.IsSPE() {
			panic(usageError(loc, "PI_CreateBundle",
				"the bundle's common endpoint must be a regular process, not SPE process %s", end))
		}
		if common == nil {
			common = end
		} else if common != end {
			panic(usageError(loc, "PI_CreateBundle", "channels do not share a common %s endpoint", role))
		}
	}
	b := &Bundle{app: a, id: len(a.bundles), kind: kind, common: common, chans: append([]*Channel(nil), chans...)}
	a.bundles = append(a.bundles, b)
	return b
}

// Run executes the application: it freezes the configuration, builds the
// MPI world (user ranks, one Co-Pilot rank per Cell node, and the optional
// deadlock service rank), starts every regular process plus mainBody as
// PI_MAIN, and drives the simulation to completion. It returns the first
// error the run aborted with, or nil.
func (a *App) Run(mainBody func(ctx *Ctx)) error {
	if a.phase != phaseConfig {
		return fmt.Errorf("pilot: Run called twice")
	}
	a.phase = phaseExec
	for _, p := range a.procs {
		p.str = p.format()
	}
	// Freeze the observability sinks: everything recorded during the run
	// goes through this snapshot, so writing the public fields after this
	// point cannot race with recording (see SetTrace et al.).
	a.obs = obsSinks{trace: a.Trace, meter: a.Metrics, prof: a.Profile, flight: a.flight, host: a.HostProf, tline: a.Timeline, flow: a.Flows}
	// Wire the host-cost profiler into the kernel's probe hooks. Guarded:
	// a typed-nil assigned into the HostProbe interface would defeat the
	// kernel's `host != nil` fast path.
	if a.obs.host != nil {
		a.K.SetHostProbe(a.obs.host)
		a.Clu.Net.SetHostProf(a.obs.host)
	}
	// Wire the timeline recorder into the kernel's clock hook (guarded
	// for the same typed-nil reason as the host probe).
	a.installTimeline()

	// Rank layout: regular processes first (PI_MAIN = 0), then Co-Pilots,
	// then the deadlock service.
	placements := make([]mpi.Placement, 0, len(a.regulars)+len(a.Clu.Nodes)+1)
	for _, p := range a.regulars {
		placements = append(placements, mpi.Placement{Node: p.nodeID, Label: p.name})
	}
	for _, n := range a.Clu.Nodes {
		if n.Arch != cellbe.ArchCell {
			continue
		}
		groups := 1
		if a.opts.CoPilotPerCell {
			groups = len(n.Cells)
		}
		for g := 0; g < groups; g++ {
			key := copilotKey{n.ID, g}
			a.copilotRank[key] = len(placements)
			a.copilotOrder = append(a.copilotOrder, key)
			label := fmt.Sprintf("copilot@%s", n.Name)
			if groups > 1 {
				label = fmt.Sprintf("copilot@%s/cell%d", n.Name, g)
			}
			placements = append(placements, mpi.Placement{Node: n.ID, Label: label})
		}
	}
	svcRank := -1
	if a.opts.DeadlockDetection {
		svcRank = len(placements)
		placements = append(placements, mpi.Placement{Node: 0, Label: "pisvc=d"})
	}
	world, err := mpi.NewWorld(a.Clu, placements)
	if err != nil {
		return err
	}
	a.world = world
	world.Faults = a.opts.Faults
	world.Host = a.obs.host
	// Wire the flow observatory into the layers that see node→node and
	// wire-level traffic: every delivered MPI message fills the matrix,
	// every frame the interconnect carries is tallied per link.
	if f := a.obs.flow; f != nil {
		f.SetNodes(len(a.Clu.Nodes))
		world.Flow = f.Node
		a.Clu.Net.SetFlowHook(f.Wire)
	}

	// Co-Pilot service processes, spawned in rank order (deterministic).
	for _, key := range a.copilotOrder {
		rank := a.copilotRank[key]
		cp := newCopilot(a, key, world.Rank(rank))
		a.copilots[key] = cp
		label := world.Rank(rank).Label()
		cp.proc = a.K.Spawn(label, func(sp *sim.Proc) {
			a.obs.prof.ProcStart(label, sp.Now())
			defer func() { a.obs.prof.ProcEnd(label, sp.Now()) }()
			// The whole service loop runs under one host-attribution frame:
			// the per-proc tag persists across parks, so only the Co-Pilot's
			// own execution slices are charged to it.
			a.obs.host.Enter(hostprof.SubsysCoPilot)
			defer a.obs.host.Exit()
			cp.loop(sp)
		})
	}
	// Deadlock service.
	if svcRank >= 0 {
		a.svc = newSvc(a)
		a.K.Spawn("pilot/pisvc=d", a.svc.loop)
	}

	// User processes.
	a.userLive = len(a.regulars)
	for _, p := range a.regulars {
		p := p
		body := p.fn
		if p.id == 0 {
			body = func(ctx *Ctx, _ int, _ any) { mainBody(ctx) }
		}
		p.simProc = a.K.Spawn(p.name, func(sp *sim.Proc) {
			defer a.userDone()
			a.meterProcStart(p, sp.Now())
			defer func() { a.meterProcEnd(p, sp.Now()) }()
			// Registered last so it runs first: absorbs procFault unwinds
			// (recording the fault) while the bookkeeping above still runs.
			defer a.recoverFault(p)
			ctx := &Ctx{app: a, P: sp, Self: p, rank: world.Rank(p.rank)}
			body(ctx, p.index, p.arg)
		})
	}

	// Arm the fault injector last, so its events see the full process set.
	if inj := a.opts.Faults; inj != nil {
		inj.OnEvent = a.applyFault
		inj.Arm(a.K)
	}

	err = a.K.Run()
	a.phase = phaseDone
	// Close still-open profiler lifetimes (killed procs, service loops
	// that never observed shutdown) at the final virtual clock.
	a.obs.prof.Finish(a.K.Now())
	// Close the timeline's trailing partial window at the final clock.
	a.obs.tline.Finish(a.K.Now())
	if err == nil {
		err = a.faultSummary()
	}
	return err
}

// userDone retires one user process; when the last one finishes the
// service processes are told to shut down (the paper's PI_StopMain
// synchronization point).
func (a *App) userDone() {
	a.userLive--
	if a.userLive == 0 {
		a.allDone.Fire()
		for _, key := range a.copilotOrder {
			a.copilots[key].nudge()
		}
		if a.svc != nil {
			a.svc.post(svcMsg{kind: svcExit})
		}
	}
}

// copilotKey identifies a Co-Pilot: the node it serves and, under the
// CoPilotPerCell ablation, the Cell processor group (otherwise 0).
type copilotKey struct{ node, cell int }

// copilotKeyFor locates the Co-Pilot responsible for an SPE process.
func (a *App) copilotKeyFor(p *Process) copilotKey {
	cell := 0
	if a.opts.CoPilotPerCell {
		cell = p.speIdx / 8
	}
	return copilotKey{p.nodeID, cell}
}

// copilotFor returns the Co-Pilot servicing an SPE process.
func (a *App) copilotFor(p *Process) *copilot { return a.copilots[a.copilotKeyFor(p)] }

// copilotRankFor returns that Co-Pilot's MPI rank.
func (a *App) copilotRankFor(p *Process) int { return a.copilotRank[a.copilotKeyFor(p)] }

// dbMsg is one payload in a direct-handoff box, carrying its transfer id
// alongside (not inside) the wire bytes so the timing stays unchanged.
type dbMsg struct {
	data []byte
	xfer int64
}

// directBox returns the per-channel handoff queue used by the
// CoPilotDirectLocal ablation (created lazily).
func (a *App) directBox(ch *Channel) *sim.Queue[dbMsg] {
	if a.directBoxes == nil {
		a.directBoxes = map[int]*sim.Queue[dbMsg]{}
	}
	q, ok := a.directBoxes[ch.id]
	if !ok {
		q = sim.NewQueue[dbMsg](a.K, fmt.Sprintf("directbox/%d", ch.id), 4)
		a.directBoxes[ch.id] = q
	}
	return q
}

// logf routes Ctx.Log/SPECtx.Log lines to the application's Logf hook.
func (a *App) logf(p *sim.Proc, proc *Process, format string, args ...any) {
	if a.Logf != nil {
		a.Logf("[%12s] %-24s %s", p.Now(), proc, fmt.Sprintf(format, args...))
	}
}

// record keeps the channel's in-flight backlog and its watermark (a
// completed write raises it, a completed read drains it), then feeds the
// optional trace recorder and — on the delivery (read) side — the flow
// observatory. dur is the operation's blocked time, which the flow layer
// uses as the delivery latency sample.
func (a *App) record(p *sim.Proc, kind trace.Kind, proc *Process, ch *Channel, bytes int, xfer int64, dur sim.Time) {
	switch kind {
	case trace.KindWrite:
		ch.backlog++
		if ch.backlog > ch.backlogHigh {
			ch.backlogHigh = ch.backlog
		}
	case trace.KindRead:
		ch.backlog--
	}
	if a.obs.trace != nil {
		a.obs.trace.Record(trace.Event{At: p.Now(), Kind: kind, Proc: proc.String(), Channel: ch.id, Bytes: bytes, Xfer: xfer})
	}
	if kind == trace.KindRead {
		a.flowDeliver(ch, bytes, dur)
	}
}
