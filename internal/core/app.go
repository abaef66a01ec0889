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

	// Fault-layer state (see fault.go). waiters lists the processes
	// blocked in channel operations, in the order they blocked; faulted
	// is set once a channel is poisoned or a process killed, and from then
	// on the Co-Pilots sweep their queues. The rest is empty in clean runs.
	waiters            []chanWait
	faults             []*ChannelFault
	killed             []string
	opTimeouts         int64
	faulted            bool
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
	// streams is the chunk-stream in-flight level per direction (see
	// noteStream), kept whatever sinks are attached.
	streams [2]streamLevel

	// obs is the sink set snapshotted from the embedded Sinks when Run
	// starts; recording goes through it, so late attachment is inert.
	obs Sinks
	// flight is the always-on bounded ring of recent phase events; its
	// tail is stitched into fault diagnostics.
	flight *trace.Flight
	// tracks names every process and Co-Pilot track, indexed by the label
	// the span sinks record in its place (see numberTracks); traceLbl maps
	// each label to the span recorder's.
	tracks   []string
	traceLbl []trace.Label
	// sums are the phase totals Run keeps for the profiler and the flow
	// map; nil when neither is attached.
	sums *phaseSums

	// Logf, when set, receives trace lines from Ctx.Log and SPECtx.Log
	// prefixed with virtual time and process identity.
	Logf func(format string, args ...any)
	// Sinks are the optional observation sinks; attach them before Run.
	Sinks
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
		flight:      trace.NewFlight(trace.DefaultFlightDepth),
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

// placeRegular is a regular process's default node: round-robin by id.
func (a *App) placeRegular(procID int) int { return procID % len(a.Clu.Nodes) }

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
	// Freeze the observability sinks: everything recorded during the run
	// goes through this snapshot, so writing the public fields after this
	// point cannot race with recording (see SetTrace et al.).
	a.obs = a.Sinks
	a.tracks = make([]string, 0, len(a.procs)+len(a.Clu.Nodes))
	for _, p := range a.procs {
		p.str = p.format()
		p.lbl = trace.Label(len(a.tracks))
		a.tracks = append(a.tracks, p.str)
	}
	// Wire the host-cost profiler into the kernel's probe hooks. Guarded:
	// a typed-nil assigned into the HostProbe interface would defeat the
	// kernel's `host != nil` fast path.
	if a.obs.HostProf != nil {
		a.K.SetHostProbe(a.obs.HostProf)
		a.Clu.Net.SetHostProf(a.obs.HostProf)
	}
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
			a.tracks = append(a.tracks, label)
		}
	}
	if len(a.tracks) > trace.MaxLabels {
		return usageError(callerLoc(1), "PI_StartAll", "%d processes and Co-Pilots, more than the %d tracks the span log numbers",
			len(a.tracks), trace.MaxLabels)
	}
	a.numberTracks()
	if prof, flows := a.obs.Profile != nil, a.obs.Flows != nil; prof || flows {
		a.sums = &phaseSums{}
		if prof {
			a.sums.track = make([]trackTime, len(a.tracks))
		}
		if flows {
			a.sums.hop = make([][2]hopTime, len(a.chans))
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
	world.Host = a.obs.HostProf
	// Wire the flow observatory into the layers that see node→node and
	// wire-level traffic: every delivered MPI message fills the matrix,
	// every frame the interconnect carries is tallied per link.
	if f := a.obs.Flows; f != nil {
		f.SetNodes(len(a.Clu.Nodes))
		world.Flow = f.Node
		a.Clu.Net.SetFlowHook(f.Wire)
	}

	// Co-Pilot service processes, spawned in rank order (deterministic).
	for i, key := range a.copilotOrder {
		rank := a.copilotRank[key]
		cp := newCopilot(a, key, world.Rank(rank))
		cp.lbl = trace.Label(len(a.procs) + i)
		a.copilots[key] = cp
		label := world.Rank(rank).Label()
		cp.proc = a.K.Spawn(label, func(sp *sim.Proc) {
			cp.life.begin(sp.Now())
			defer func() { cp.life.finish(sp.Now()) }()
			// The whole service loop runs under one host-attribution frame:
			// the per-proc tag persists across parks, so only the Co-Pilot's
			// own execution slices are charged to it.
			a.obs.HostProf.Enter(hostprof.SubsysCoPilot)
			defer a.obs.HostProf.Exit()
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
			p.life.begin(sp.Now())
			defer func() { p.life.finish(sp.Now()) }()
			// Registered last so it runs first: absorbs procFault unwinds
			// (recording the fault) while the bookkeeping above still runs.
			defer a.recoverFault(p)
			ctx := &Ctx{app: a, P: sp, Self: p, rank: world.Rank(p.rank)}
			body(ctx, p.index, p.arg)
		})
	}

	// Wire the timeline recorder into the kernel's clock hook (guarded
	// for the same typed-nil reason as the host probe), now that the
	// Co-Pilots its series name exist.
	a.installTimeline()

	// Arm the fault injector last, so its events see the full process set.
	if inj := a.opts.Faults; inj != nil {
		inj.OnEvent = a.applyFault
		inj.Arm(a.K)
	}

	err = a.K.Run()
	a.phase = phaseDone
	a.publishAccounting()
	// Close the timeline's trailing partial window at the final clock.
	a.obs.Timeline.Finish(a.K.Now())
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

// record accounts one completed channel operation: it counts the
// operation and its payload on the channel and keeps the channel's
// in-flight backlog and its watermark (a completed write raises it, a
// completed read drains it), then feeds the optional Meter and trace
// recorder and — on the delivery (read) side — the flow observatory. dur
// is the operation's latency, which the Meter and the flow layer sample.
func (a *App) record(p *sim.Proc, kind trace.Kind, proc *Process, ch *Channel, bytes int, xfer int64, dur sim.Time) {
	ch.ops++
	ch.bytes += int64(bytes)
	switch kind {
	case trace.KindWrite:
		ch.backlog++
		if ch.backlog > ch.backlogHigh {
			ch.backlogHigh = ch.backlog
		}
	case trace.KindRead:
		ch.backlog--
	}
	if m := a.obs.Metrics; m != nil {
		m.observeOp(ch.typ, bytes, dur)
	}
	if a.obs.Trace != nil {
		a.obs.Trace.AddEvent(a.traceLbl[proc.lbl], trace.Event{At: p.Now(), Kind: kind, Channel: ch.id, Bytes: bytes, Xfer: xfer})
	}
	if kind == trace.KindRead {
		a.flowDeliver(ch, bytes, dur)
	}
}

// Chunk-stream in-flight directions, indexing App.streams.
const (
	inflightSend = iota // chunks injected but not yet landed on the wire
	inflightRecv        // chunks announced by the header but not yet drained
)

// streamGauges names each direction's in-flight gauge and timeline series.
var streamGauges = [2]string{"copilot/stream/inflight_send", "copilot/stream/inflight_recv"}

// streamLevel is the chunk-stream in-flight level in one direction: the
// latest observation and the run's high-water mark.
type streamLevel struct {
	seen      bool
	cur, high int
}

// noteStream records a chunked stream's in-flight level n in direction dir.
func (a *App) noteStream(dir, n int) {
	s := &a.streams[dir]
	s.seen, s.cur, s.high = true, n, max(s.high, n)
}

// publishAccounting hands core's accounting to the sinks that report it,
// once, when Run ends: the profiler gets every Co-Pilot's and process's
// lifetime, with unfinished ones (killed processes, service loops) closed
// at the final clock, and each track's time by phase kind; the flow map
// gets each Co-Pilot's copy and relay time per channel; the Meter gets
// the per-type operation and byte counters and the stream in-flight
// gauges. Sums are added, so a sink shared across Apps accumulates.
func (a *App) publishAccounting() {
	now := a.K.Now()
	if prof := a.obs.Profile; prof != nil {
		for _, key := range a.copilotOrder {
			if cp := a.copilots[key]; cp.life.ran {
				start, end := cp.life.span(now)
				prof.SetLifetime(cp.rank.Label(), start, end)
			}
		}
		for _, p := range a.procs {
			if p.life.ran {
				start, end := p.life.span(now)
				prof.SetLifetime(p.String(), start, end)
			}
		}
		for lbl, t := range a.sums.track {
			name := a.tracks[lbl]
			for k, d := range t.phase {
				// Co-Pilot wait spans a request's posting and queueing,
				// already the requester's time, not the Co-Pilot's.
				if kind := trace.PhaseKind(k); kind != trace.PhaseCoPilotWait {
					prof.Attribute(name, kind.String(), d)
				}
			}
			prof.Attribute(name, profile.BucketFaultBackoff, t.backoff)
		}
	}
	if f := a.obs.Flows; f != nil {
		for id, hops := range a.sums.hop {
			for _, h := range hops {
				if h.busy > 0 {
					f.HopBusy(a.tracks[h.lbl], a.flowInfo(a.chans[id]).key, h.busy)
				}
			}
		}
	}
	m := a.obs.Metrics
	if m == nil {
		return
	}
	var ops, bytes [Type5 + 1]int64
	for _, ch := range a.chans {
		ops[ch.typ] += ch.ops
		bytes[ch.typ] += ch.bytes
	}
	for t := Type1; t <= Type5; t++ {
		if ops[t] > 0 {
			m.reg.Counter(chanTypeNames[t].ops).Add(ops[t])
			m.reg.Counter(chanTypeNames[t].bytes).Add(bytes[t])
		}
	}
	for dir, s := range a.streams {
		if s.seen {
			m.reg.Gauge(streamGauges[dir]).Set(float64(s.cur))
			m.reg.Gauge(streamGauges[dir] + "_highwater").SetMax(float64(s.high))
		}
	}
}
