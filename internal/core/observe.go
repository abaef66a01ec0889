package core

import (
	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/metrics"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// This file is the core side of the observability subsystem: per-transfer
// ids correlating the stages of a channel operation into trace spans, and
// the Meter's latency/bandwidth histograms. Everything here is host-side
// bookkeeping — no call in this file advances virtual time, so an
// instrumented run keeps the calibrated timings of an uninstrumented one
// bit-for-bit.

// Histogram bucket layouts. Latencies and waits are recorded in
// microseconds (the paper's unit), payload sizes in bytes, bandwidth in
// MB/s, queue depth in requests.
var (
	latencyBucketsUs = metrics.ExpBuckets(0.5, 2, 24)
	sizeBuckets      = metrics.ExpBuckets(1, 4, 16)
	bwBucketsMBps    = metrics.ExpBuckets(0.125, 2, 24)
	depthBuckets     = metrics.LinearBuckets(0, 1, 33)
)

// typeNames are one channel type's metric names and its timeline backlog
// series name.
type typeNames struct {
	ops, bytes, latency, size, bandwidth, backlogHigh, backlog string
}

// chanTypeNames holds every channel type's names, built once; index t is
// ChannelType t.
var chanTypeNames = func() (out [Type5 + 1]typeNames) {
	for t := Type1; t <= Type5; t++ {
		p := "chan/" + t.String()
		out[t] = typeNames{
			ops: p + "/ops", bytes: p + "/payload_bytes_total",
			latency: p + "/latency_us", size: p + "/payload_bytes", bandwidth: p + "/bandwidth_mbps",
			backlogHigh: p + "/backlog_highwater", backlog: "backlog/" + t.String(),
		}
	}
	return out
}()

// faultNames holds the metric and timeline series name of each
// fault.Counters entry, built once.
var faultNames = func() []string {
	out := make([]string, len(fault.Counters))
	for i, c := range fault.Counters {
		out[i] = "fault/" + c.Name
	}
	return out
}()

// Meter holds the run-wide histograms that need one sample per event:
// per-channel-type operation latency, payload size and achieved
// bandwidth, and Co-Pilot service-queue wait and depth. Core keeps the
// counts (per-process blocked time, per-channel operations and bytes,
// chunk-stream in-flight levels) and, when Run ends, adds the per-type
// operation and byte counters and the stream gauges to the Meter's
// registry. Attach one via App.Metrics before Run; read the results from
// App.Stats after. Like the trace recorder, a Meter observes at zero
// virtual-time cost.
type Meter struct {
	reg *metrics.Registry
}

// NewMeter creates an empty meter.
func NewMeter() *Meter {
	return &Meter{reg: metrics.NewRegistry()}
}

// Registry exposes the raw metric registry (for dumps and exports).
func (m *Meter) Registry() *metrics.Registry { return m.reg }

// Sinks are the optional observation sinks an App records into, each
// free of virtual-time cost, so an observed run keeps the calibrated
// timings of a bare one; a nil field stays detached. App embeds them:
// attach by assigning a field (or the whole set) before Run, or through
// the Set* methods, which also report a late attach. Run snapshots the
// set when it starts and records through the snapshot, so a later write
// records nothing.
type Sinks struct {
	// Trace records every completed channel operation and the phases
	// inside it.
	Trace *trace.Recorder
	// Metrics aggregates per-channel-type histograms and Co-Pilot queue
	// statistics, receives core's per-type counters when Run ends, and
	// turns on Stats' per-type and per-process sections.
	Metrics *Meter
	// Profile gets every process's lifetime and its virtual time by phase
	// kind when Run ends, and folds them into exclusive attribution
	// buckets (internal/profile) exportable as folded stacks or pprof.
	Profile *profile.Profiler
	// HostProf measures what the run costs on the host: wall-clock kernel
	// counters (events, heap traffic) and per-subsystem host-time
	// attribution (internal/hostprof). It rides strictly outside the
	// virtual timeline, so virtual results and chaos fingerprints stay
	// bit-for-bit identical with it attached.
	HostProf *hostprof.Profiler
	// Timeline buckets live telemetry (Co-Pilot utilization, link
	// saturation, per-type backlog, fault counters, ...) into fixed
	// virtual-time windows via the kernel's clock hook
	// (internal/timeline), surfaced through Stats().Timeline.
	Timeline *timeline.Recorder
	// Flows classifies every delivered message into a flow (src proc, dst
	// proc, channel type, route) and aggregates the node×node traffic
	// matrix, per-hop attribution and heavy-hitter table
	// (internal/flowmap), surfaced through Stats().Flows. Co-Pilot hop
	// occupancy arrives when Run ends.
	Flows *flowmap.Map
}

// phaseSums are the phase totals Run keeps while a profiler or a flow map
// is attached, and hands over when it ends (see publishAccounting): track,
// by track label, for the profiler, and hop, by channel id, for the flow
// map.
type phaseSums struct {
	track []trackTime
	hop   [][2]hopTime
}

// trackTime is one track's virtual time in each transfer phase kind, with
// the fault-protocol repost time split off its mailbox requests in
// backoff.
type trackTime struct {
	phase   [trace.PhaseChunkRelay + 1]sim.Time
	backoff sim.Time
}

// hopTime is the time one Co-Pilot track spent copying and relaying a
// channel's payloads. A channel has at most two such tracks, its writer's
// Co-Pilot and its reader's; a zero lbl marks a slot no Co-Pilot has used
// (label 0 is PI_MAIN's).
type hopTime struct {
	lbl  trace.Label
	busy sim.Time
}

// newXfer allocates the next transfer id (ids are 1-based; 0 means
// "untagged"). With the always-on flight recorder every transfer is
// tagged; the id is pure host-side bookkeeping riding out-of-band, so the
// virtual timeline is unaffected.
func (a *App) newXfer() int64 {
	a.lastXfer++
	return a.lastXfer
}

// spanPhase records one transfer phase in the always-on flight ring and
// the optional span recorder, and adds its duration to core's totals: the
// track's time in that phase kind while a profiler is attached, and a
// Co-Pilot's copy and relay time on the channel while a flow map is. lbl
// is the executing track's label (see numberTracks).
func (a *App) spanPhase(xfer int64, phase trace.PhaseKind, lbl trace.Label, ch *Channel, bytes int, start, end sim.Time) {
	if xfer == 0 {
		return
	}
	a.span(lbl, trace.PhaseEvent{
		Xfer: xfer, Phase: phase,
		Channel: ch.id, ChanType: int(ch.typ), Bytes: bytes,
		Start: start, End: end,
	})
	sums := a.sums
	if sums == nil {
		return
	}
	d := end - start
	if sums.track != nil {
		t := &sums.track[lbl]
		if phase == trace.PhaseMailboxReq {
			// A stub's repost time since its last mailbox request is split
			// off this one (see SPECtx.postDesc).
			p := a.procs[lbl]
			back := min(p.backoff, d)
			p.backoff = 0
			t.backoff += back
			d -= back
		}
		t.phase[phase] += d
	}
	if sums.hop != nil && int(lbl) >= len(a.procs) {
		// Labels past the processes' are the Co-Pilots'.
		switch phase {
		case trace.PhaseCopy, trace.PhaseRelay, trace.PhaseChunkRelay:
			h := &sums.hop[ch.id]
			i := 0
			if h[0].lbl != 0 && h[0].lbl != lbl {
				i = 1
			}
			h[i].lbl = lbl
			h[i].busy += d
		}
	}
}

// spanChunk dispatches one per-chunk annotation event (a chunk frame's
// stack injection/drain, or its LS↔EA move on the MFC DMA engine). The
// event carries the 1-based chunk index (its stream is its transfer), so
// Chrome flow events can link chunk k's injection to chunk k's drain and
// the critical-path analyzer gets mfc-dma occupancy intervals.
// Annotations are never fed to the profiler, whose buckets are exclusive
// over primary stages only.
func (a *App) spanChunk(xfer int64, phase trace.PhaseKind, lbl trace.Label, ch *Channel, bytes int, start, end sim.Time, chunk int) {
	if xfer == 0 {
		return
	}
	a.span(lbl, trace.PhaseEvent{
		Xfer: xfer, Phase: phase,
		Channel: ch.id, ChanType: int(ch.typ), Bytes: bytes,
		Start: start, End: end, Chunk: chunk + 1,
	})
}

// span stores one phase in the flight ring and the span recorder.
func (a *App) span(lbl trace.Label, pe trace.PhaseEvent) {
	a.flight.Add(lbl, pe)
	if a.obs.Trace != nil {
		a.obs.Trace.AddPhase(a.traceLbl[lbl], pe)
	}
}

// numberTracks hands the span sinks the App's track names once Run has
// named every track: label i is a.tracks[i], processes by id first, then
// Co-Pilots in rank order, so a phase records a number and never looks a
// name up. The flight ring resolves labels through the same names; a span
// recorder gets a mapping into its own table, which other Apps recording
// into it share. Transfers are numbered after the highest id the span
// recorder already holds, so Apps sharing it never share a transfer id.
func (a *App) numberTracks() {
	a.flight.SetNames(a.tracks)
	if rec := a.obs.Trace; rec != nil {
		a.lastXfer = rec.MaxXfer()
		a.traceLbl = make([]trace.Label, len(a.tracks))
		for i, name := range a.tracks {
			a.traceLbl[i] = rec.Intern(name)
		}
	}
}

// observeOp samples one completed channel operation (read or write side)
// into its type's latency, size and bandwidth histograms.
func (m *Meter) observeOp(t ChannelType, bytes int, dur sim.Time) {
	n := &chanTypeNames[t]
	m.reg.Histogram(n.latency, latencyBucketsUs).Observe(dur.Micros())
	m.reg.Histogram(n.size, sizeBuckets).Observe(float64(bytes))
	if dur > 0 && bytes > 0 {
		mbps := float64(bytes) / (float64(dur) / float64(sim.Second)) / 1e6
		m.reg.Histogram(n.bandwidth, bwBucketsMBps).Observe(mbps)
	}
}

// meterReq records one decoded Co-Pilot request: how long it sat between
// the SPE posting it and the Co-Pilot decoding it (mailbox transfer +
// polling quantization + service-queue wait), and the queue depth found
// at decode time. The Co-Pilot's meter entries are looked up at its first
// request, so the registry holds them exactly when a request was metered.
func (cp *copilot) meterReq(wait sim.Time, depth int) {
	m := cp.app.obs.Metrics
	if m == nil {
		return
	}
	if cp.reqs == nil {
		prefix := "copilot/" + cp.rank.Label()
		cp.reqs = m.reg.Counter(prefix + "/requests")
		cp.wait = m.reg.Histogram(prefix+"/queue_wait_us", latencyBucketsUs)
		cp.depth = m.reg.Histogram(prefix+"/queue_depth", depthBuckets)
	}
	cp.reqs.Inc()
	cp.wait.Observe(wait.Micros())
	cp.depth.Observe(float64(depth))
}

// spePost is the side-band record of an SPE's in-flight mailbox request.
// The four-word descriptor has no room for a transfer id, and widening it
// would change the calibrated mailbox timings — so the id travels next to
// the simulated protocol, not in it.
type spePost struct {
	xfer     int64 // writer-allocated transfer id; 0 for read requests
	postedAt sim.Time
}

// spePosted records that p began posting a request descriptor at `at`.
// Called by the SPE stub immediately before the first mailbox word.
func (a *App) spePosted(p *Process, xfer int64, at sim.Time) {
	a.spePosts[p.id] = spePost{xfer: xfer, postedAt: at}
}

// speTakePost consumes the pending post record for p (decode time).
func (a *App) speTakePost(p *Process) spePost {
	post := a.spePosts[p.id]
	delete(a.spePosts, p.id)
	return post
}

// speSetDone hands the transfer id of a completed request back to the SPE
// stub (a reader learns its transfer's id only when the payload arrives).
func (a *App) speSetDone(p *Process, xfer int64) {
	a.speDone[p.id] = xfer
}

// speTakeDone consumes the completed-transfer id for p.
func (a *App) speTakeDone(p *Process) int64 {
	xfer := a.speDone[p.id]
	delete(a.speDone, p.id)
	return xfer
}

// obsComplete records the Co-Pilot-side phases of a finished SPE request
// (queue wait, decode/dispatch service) and hands the transfer id back to
// the stub for its own phase records.
func (cp *copilot) obsComplete(req *speReq) {
	a := cp.app
	if req.xfer != 0 {
		a.spanPhase(req.xfer, trace.PhaseCoPilotWait, cp.lbl, req.ch, req.size, req.postedAt, req.decodeAt)
		a.spanPhase(req.xfer, trace.PhaseCoPilotService, cp.lbl, req.ch, req.size, req.decodeAt, req.svcEnd)
	}
	if req.op == opRead {
		// A reading stub learns its transfer's id only here, from the
		// payload; a writing stub allocated the id itself.
		a.speSetDone(req.proc, req.xfer)
	}
}
