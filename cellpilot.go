// Package cellpilot is a Go reproduction of CellPilot — "CellPilot: A
// Seamless Communication Solution for Hybrid Cell Clusters" (Girard,
// Gardner, Carter, Grewal; ICPP 2011 Workshops) — together with every
// substrate it needs: a discrete-event simulated cluster of Cell BE
// blades and x86 nodes, an MPI-like transport, the libspe2-style SPE
// runtime, the Pilot process/channel library, the Co-Pilot service
// process, and a DaCS baseline.
//
// Programs follow Pilot's two-phase model. The configuration phase
// defines processes (regular or SPE) and the channels binding them:
//
//	clu, _ := cellpilot.NewCluster(cellpilot.ClusterSpec{CellNodes: 2})
//	app := cellpilot.NewApp(clu, cellpilot.Options{})
//	var between *cellpilot.Channel
//	send := &cellpilot.SPEProgram{Name: "send", Body: func(ctx *cellpilot.SPECtx) {
//		arr := make([]int32, 100)
//		for i := range arr { arr[i] = int32(i) }
//		ctx.Write(between, "%100d", arr)
//	}}
//	recv := &cellpilot.SPEProgram{Name: "recv", Body: func(ctx *cellpilot.SPECtx) {
//		arr := make([]int32, 100)
//		ctx.Read(between, "%*d", 100, arr)
//	}}
//	recvPPE := app.CreateProcessOn(1, "recvFunc", func(ctx *cellpilot.Ctx, _ int, arg any) {
//		ctx.RunSPE(arg.(*cellpilot.Process), 0, nil)
//	}, 0, nil)
//	sendSPE := app.CreateSPE(send, app.Main(), 0)
//	recvSPE := app.CreateSPE(recv, recvPPE, 0)
//	recvPPE.SetArg(recvSPE)
//	between = app.CreateChannel(sendSPE, recvSPE)
//
// The execution phase starts when Run is called; its argument is the
// PI_MAIN body:
//
//	err := app.Run(func(ctx *cellpilot.Ctx) {
//		ctx.RunSPE(sendSPE, 0, nil)
//	})
//
// Write and Read use Pilot's stdio-inspired format strings ("%d",
// "%100Lf", "%*f"); channels may join PPE, SPE and non-Cell processes in
// any combination, and the library routes each transfer through the
// appropriate mechanism (MPI, Co-Pilot relay, mailbox + effective-address
// copy) without the program changing.
package cellpilot

import (
	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/metrics"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// Core programming-model types (Pilot/CellPilot).
type (
	// App is one Pilot application over a cluster.
	App = core.App
	// Ctx is a regular process's execution-phase handle.
	Ctx = core.Ctx
	// SPECtx is an SPE process's execution-phase handle.
	SPECtx = core.SPECtx
	// Process is a Pilot process (regular or SPE).
	Process = core.Process
	// Channel is a point-to-point message conduit bound to a process pair.
	Channel = core.Channel
	// Bundle is a channel set with a common endpoint for collective use.
	Bundle = core.Bundle
	// SPEProgram is an SPE executable (spe_program_handle_t equivalent).
	SPEProgram = core.SPEProgram
	// Options configure an App (deadlock service, placement, ablations).
	Options = core.Options
	// ProcessFunc is a regular process body.
	ProcessFunc = core.ProcessFunc
	// SPEFunc is an SPE process body.
	SPEFunc = core.SPEFunc
	// ChannelType is the Table I channel taxonomy.
	ChannelType = core.ChannelType
	// BundleKind is a bundle's declared collective usage.
	BundleKind = core.BundleKind
)

// Machine types.
type (
	// Cluster is a simulated hybrid machine.
	Cluster = cluster.Cluster
	// ClusterSpec describes a cluster to build.
	ClusterSpec = cluster.Spec
	// Params is the calibrated timing/size table.
	Params = cellbe.Params
	// LongDouble is the 16-byte PPC long double ("%Lf" elements).
	LongDouble = fmtmsg.LongDoubleVal
	// Time is virtual time in nanoseconds.
	Time = sim.Time
)

// Channel types (paper Table I).
const (
	Type1 = core.Type1
	Type2 = core.Type2
	Type3 = core.Type3
	Type4 = core.Type4
	Type5 = core.Type5
)

// Bundle kinds. Broadcast, gather and select are the Pilot V1.2
// operations the paper describes; scatter and reduce arrived in later
// Pilot versions and are provided for completeness.
const (
	BundleBroadcast = core.BundleBroadcast
	BundleGather    = core.BundleGather
	BundleSelect    = core.BundleSelect
	BundleScatter   = core.BundleScatter
	BundleReduce    = core.BundleReduce
)

// ReduceOp is an elementwise reduction operator for Ctx.Reduce.
type ReduceOp = core.ReduceOp

// Reduction operators.
const (
	OpSum = core.OpSum
	OpMin = core.OpMin
	OpMax = core.OpMax
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Observability types.
type (
	// Stats is the post-run utilization report (App.Stats).
	Stats = core.Stats
	// CoPilotStats is one Co-Pilot's service counters.
	CoPilotStats = core.CoPilotStats
	// SPEStats is one SPE process's local-store usage.
	SPEStats = core.SPEStats
	// TraceRecorder records channel operations at zero virtual cost;
	// attach one via App.Trace.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded operation.
	TraceEvent = trace.Event
	// Span is one channel transfer reconstructed from its phase events
	// (TraceRecorder.Spans).
	Span = trace.Span
	// PhaseEvent is one stage of a transfer (mailbox, Co-Pilot, relay…).
	PhaseEvent = trace.PhaseEvent
	// Meter aggregates latency/bandwidth histograms at zero virtual cost
	// and turns on Stats' per-type and per-process sections; attach one
	// via App.Metrics.
	Meter = core.Meter
	// ChannelTypeMetrics is one channel type's aggregate in Stats.
	ChannelTypeMetrics = core.ChannelTypeMetrics
	// ProcTime is one process's compute/blocked time split in Stats.
	ProcTime = core.ProcTime
	// LinkUtil is one interconnect link's occupancy/saturation in Stats.
	LinkUtil = core.LinkUtil
	// Profiler attributes every process's virtual lifetime into exclusive
	// buckets (compute, pack, mailbox, Co-Pilot, MPI, fault backoff);
	// attach one via App.Profile, read folded stacks or pprof after Run.
	Profiler = profile.Profiler
	// Flight is the always-on bounded ring buffer of recent phase events
	// (App.Flight); its tail rides on fault diagnostics automatically.
	Flight = trace.Flight
	// MetricsRegistry is the named counter/gauge/histogram store behind a
	// Meter (Meter.Registry, Stats.Registry).
	MetricsRegistry = metrics.Registry
	// MetricsPublisher serves registry snapshots over HTTP (OpenMetrics
	// text at /metrics, JSON at /metrics.json, timeline at
	// /timeline.json) without racing the run.
	MetricsPublisher = metrics.Publisher
	// Timeline records windowed time-series of the run's gauges and
	// counters against the virtual clock; attach one via App.Timeline.
	Timeline = timeline.Recorder
	// TimelineReport is the analyzed timeline (Stats.Timeline): per-series
	// peak/mean/p95, burst runs and per-fault recovery times.
	TimelineReport = timeline.Report
	// Flowmap classifies every delivery into a flow (src, dst, channel
	// type, route) and aggregates the node×node traffic matrix, per-hop
	// attribution, and heavy-hitter table; attach one via App.Flows.
	Flowmap = flowmap.Map
	// FlowReport is the analyzed flow observatory (Stats.Flows): traffic
	// matrix, top-K flows, per-route and per-resource breakdowns.
	FlowReport = flowmap.Report
	// FlowKey identifies one flow.
	FlowKey = flowmap.Key
)

// Robustness types (fault injection, timeouts, graceful degradation).
type (
	// FaultPlan is a deterministic fault schedule for one run: timed
	// events plus per-link loss/delay/corruption policies, all driven by
	// the virtual clock and a seeded RNG.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault (node crash, SPE/Co-Pilot kill,
	// mailbox drop or stall).
	FaultEvent = fault.Event
	// FaultKind discriminates FaultEvent.
	FaultKind = fault.Kind
	// LinkPolicy is a per-link probabilistic drop/delay/corrupt policy.
	LinkPolicy = fault.LinkPolicy
	// FaultInjector executes a FaultPlan against one run; pass it in
	// Options.Faults.
	FaultInjector = fault.Injector
	// FaultCounts carries the injector's fault and reaction counters.
	FaultCounts = fault.Counts
	// ChannelFault is the structured error a channel operation returns
	// (TryRead/TryWrite) or App.Run reports when a fault or timeout hit
	// the operation.
	ChannelFault = core.ChannelFault
	// FaultSummary is App.Run's error when a hardened run completed
	// degraded: the processes killed and the operation faults raised.
	FaultSummary = core.FaultSummary
	// FaultStats is the fault section of Stats.
	FaultStats = core.FaultStats
)

// Fault event kinds.
const (
	FaultCrashNode    = fault.CrashNode
	FaultKillSPE      = fault.KillSPE
	FaultKillCoPilot  = fault.KillCoPilot
	FaultMailboxDrop  = fault.MailboxDrop
	FaultMailboxStall = fault.MailboxStall
)

// NewFaultInjector builds the executor for a fault plan. Create one per
// run (injectors are single-use) and set it as Options.Faults.
func NewFaultInjector(plan FaultPlan) *FaultInjector { return fault.NewInjector(plan) }

// NewTraceRecorder creates a recorder keeping at most limit events
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// NewMeter creates an empty metrics aggregator for App.Metrics.
func NewMeter() *Meter { return core.NewMeter() }

// NewTimeline creates a windowed telemetry recorder for App.Timeline
// (window 0 selects the default 100µs bucket).
func NewTimeline(window Time) *Timeline { return timeline.New(window) }

// NewFlowmap creates a flow observatory for App.Flows (maxFlows 0 selects
// the default bounded flow-table size; overflow past the bound folds into
// one exact overflow bucket, totals stay exact).
func NewFlowmap(maxFlows int) *Flowmap { return flowmap.New(maxFlows) }

// NewProfiler creates an empty virtual-time profiler for App.Profile.
func NewProfiler() *Profiler { return profile.New() }

// NewMetricsPublisher creates a publisher for serving metric snapshots
// over HTTP; wire its Handler into an http.Server and call Publish with a
// registry whenever fresh values should become visible.
func NewMetricsPublisher() *MetricsPublisher { return metrics.NewPublisher() }

// NewCluster builds a simulated hybrid cluster.
func NewCluster(spec ClusterSpec) (*Cluster, error) { return cluster.New(spec) }

// PaperCluster builds the paper's Section V testbed: 8 dual-PowerXCell 8i
// blades plus 4 Xeon nodes on gigabit Ethernet.
func PaperCluster() (*Cluster, error) { return cluster.New(cluster.PaperSpec()) }

// NewApp starts a Pilot application's configuration phase on a cluster.
func NewApp(c *Cluster, opts Options) *App { return core.NewApp(c, opts) }

// DefaultParams returns the timing calibration fitted to paper Table II.
func DefaultParams() *Params { return cellbe.DefaultParams() }
