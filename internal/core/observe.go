package core

import (
	"strings"

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

// obsSinks is the set of observability sinks a Run records into. It is
// snapshotted from the public fields when Run starts, so attaching a
// recorder or meter after the simulation began is inert (the checked
// SetTrace/SetMetrics/SetProfile methods additionally report the misuse
// as a configuration error) instead of racing with recording.
type obsSinks struct {
	trace  *trace.Recorder
	meter  *Meter
	prof   *profile.Profiler
	flight *trace.Flight
	host   *hostprof.Profiler
	tline  *timeline.Recorder
	flow   *flowmap.Map
}

// newXfer allocates the next transfer id (ids are 1-based; 0 means
// "untagged"). With the always-on flight recorder every transfer is
// tagged; the id is pure host-side bookkeeping riding out-of-band, so the
// virtual timeline is unaffected.
func (a *App) newXfer() int64 {
	a.lastXfer++
	return a.lastXfer
}

// spanPhase dispatches one transfer phase to every attached sink: the
// always-on flight recorder, the optional span recorder, and the optional
// virtual-time profiler. lbl is the executing track's label (see
// numberTracks).
func (a *App) spanPhase(xfer int64, phase trace.PhaseKind, lbl trace.Label, ch *Channel, bytes int, start, end sim.Time) {
	if xfer == 0 {
		return
	}
	a.span(lbl, trace.PhaseEvent{
		Xfer: xfer, Phase: phase,
		Channel: ch.id, ChanType: int(ch.typ), Bytes: bytes,
		Start: start, End: end,
	})
	if a.obs.prof != nil {
		a.profAttribute(lbl, phase, end-start)
	}
	// Flow observatory: a copy/relay span executed by a Co-Pilot is that
	// hop's measured occupancy on behalf of the channel's flow.
	if f := a.obs.flow; f != nil {
		switch phase {
		case trace.PhaseCopy, trace.PhaseRelay, trace.PhaseChunkRelay:
			if proc := a.tracks[lbl]; strings.HasPrefix(proc, copilotLabelPrefix) {
				f.HopBusy(proc, a.flowInfo(ch).key, end-start)
			}
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
	a.obs.flight.Add(lbl, pe)
	if a.obs.trace != nil {
		a.obs.trace.AddPhase(a.traceLbl[lbl], pe)
	}
}

// numberTracks hands the span sinks the App's track names once Run has
// named every track: label i is a.tracks[i], processes by id first, then
// Co-Pilots in rank order, so a phase records a number and never looks a
// name up. The flight ring resolves labels through the same names; a span
// recorder gets a mapping into its own table, which other Apps recording
// into it share.
func (a *App) numberTracks() {
	a.flight.SetNames(a.tracks)
	if rec := a.obs.trace; rec != nil {
		a.traceLbl = make([]trace.Label, len(a.tracks))
		for i, name := range a.tracks {
			a.traceLbl[i] = rec.Intern(name)
		}
	}
}

// profAttribute folds one phase of duration d into the profiler's
// exclusive buckets. PhaseCoPilotWait is deliberately excluded: it spans
// the requester's posting and waiting interval (already attributed on the
// SPE side), not Co-Pilot execution. A PhaseMailboxReq that contains
// fault-protocol reposts is split: the repost portion (noted by the stub
// via noteBackoff) lands in fault-backoff, the remainder in mbox-req.
func (a *App) profAttribute(lbl trace.Label, phase trace.PhaseKind, d sim.Time) {
	prof := a.obs.prof
	proc := a.tracks[lbl]
	switch phase {
	case trace.PhasePack:
		prof.Attribute(proc, profile.BucketPack, d)
	case trace.PhaseMailboxReq:
		if back := a.backoff[lbl]; back > 0 {
			delete(a.backoff, lbl)
			if back > d {
				back = d
			}
			prof.Attribute(proc, profile.BucketFaultBackoff, back)
			d -= back
		}
		prof.Attribute(proc, profile.BucketMboxReq, d)
	case trace.PhaseMailboxWait:
		prof.Attribute(proc, profile.BucketMboxWait, d)
	case trace.PhaseCoPilotService:
		prof.Attribute(proc, profile.BucketCoPilotService, d)
	case trace.PhaseCopy:
		prof.Attribute(proc, profile.BucketCopy, d)
	case trace.PhaseRelay:
		prof.Attribute(proc, profile.BucketRelay, d)
	case trace.PhaseMPISend:
		prof.Attribute(proc, profile.BucketMPISend, d)
	case trace.PhaseMPIWait:
		prof.Attribute(proc, profile.BucketMPIWait, d)
	case trace.PhaseChunkRelay:
		prof.Attribute(proc, profile.BucketChunkRelay, d)
	}
}

// noteBackoff records that the process labelled lbl spent d of its
// current mailbox request in the fault-protocol repost loop, so the
// profiler can attribute it to fault-backoff instead of mbox-req.
func (a *App) noteBackoff(lbl trace.Label, d sim.Time) {
	if a.obs.prof == nil || d <= 0 {
		return
	}
	if a.backoff == nil {
		a.backoff = map[trace.Label]sim.Time{}
	}
	a.backoff[lbl] += d
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
	m := cp.app.obs.meter
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
