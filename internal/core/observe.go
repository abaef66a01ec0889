package core

import (
	"strings"

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
// the Meter aggregating latency/bandwidth histograms and per-process
// blocked-time attribution. Everything here is host-side bookkeeping — no
// call in this file advances virtual time, so an instrumented run keeps
// the calibrated timings of an uninstrumented one bit-for-bit.

// blockKind classifies where a process's non-compute virtual time went.
type blockKind int

const (
	blockRead    blockKind = iota // blocked in a channel read (MPI recv or handoff)
	blockWrite                    // inside a channel write (send overhead + rendezvous wait)
	blockMailbox                  // SPE stub posting a request or awaiting completion
)

// procAcc accumulates one process's virtual-time split.
type procAcc struct {
	start, end sim.Time
	ended      bool
	blocked    [3]sim.Time
}

// Histogram bucket layouts. Latencies and waits are recorded in
// microseconds (the paper's unit), payload sizes in bytes, bandwidth in
// MB/s, queue depth in requests.
var (
	latencyBucketsUs = metrics.ExpBuckets(0.5, 2, 24)
	sizeBuckets      = metrics.ExpBuckets(1, 4, 16)
	bwBucketsMBps    = metrics.ExpBuckets(0.125, 2, 24)
	depthBuckets     = metrics.LinearBuckets(0, 1, 33)
)

// Meter aggregates run-wide communication metrics: per-channel-type
// operation latency, payload size and achieved bandwidth histograms,
// Co-Pilot service-queue wait and depth, and per-process blocked-time
// attribution. Attach one via App.Metrics before Run; read the results
// from App.Stats after. Like the trace recorder, a Meter observes at
// zero virtual-time cost.
type Meter struct {
	reg   *metrics.Registry
	procs map[int]*procAcc // by process id
}

// NewMeter creates an empty meter.
func NewMeter() *Meter {
	return &Meter{reg: metrics.NewRegistry(), procs: map[int]*procAcc{}}
}

// Registry exposes the raw metric registry (for dumps and exports).
func (m *Meter) Registry() *metrics.Registry { return m.reg }

func (m *Meter) acc(p *Process) *procAcc {
	a, ok := m.procs[p.id]
	if !ok {
		a = &procAcc{}
		m.procs[p.id] = a
	}
	return a
}

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
// virtual-time profiler.
func (a *App) spanPhase(xfer int64, phase trace.PhaseKind, proc string, ch *Channel, bytes int, start, end sim.Time) {
	if xfer == 0 {
		return
	}
	pe := trace.PhaseEvent{
		Xfer: xfer, Phase: phase, Proc: proc,
		Channel: ch.id, ChanType: int(ch.typ), Bytes: bytes,
		Start: start, End: end,
	}
	a.obs.flight.Record(pe)
	if a.obs.trace != nil {
		a.obs.trace.RecordPhase(pe)
	}
	if a.obs.prof != nil {
		a.profAttribute(pe)
	}
	// Flow observatory: a copy/relay span executed by a Co-Pilot is that
	// hop's measured occupancy on behalf of the channel's flow.
	if f := a.obs.flow; f != nil {
		switch phase {
		case trace.PhaseCopy, trace.PhaseRelay, trace.PhaseChunkRelay:
			if strings.HasPrefix(proc, copilotLabelPrefix) {
				f.HopBusy(proc, a.flowInfo(ch).key, end-start)
			}
		}
	}
}

// spanChunk dispatches one per-chunk annotation event (a chunk frame's
// stack injection/drain, or its LS↔EA move on the MFC DMA engine). The
// event carries the owning stream's id and the 1-based chunk index, so
// Chrome flow events can link chunk k's injection to chunk k's drain and
// the critical-path analyzer gets mfc-dma occupancy intervals. Annotations
// share the stream's transfer id, so sampling keeps or drops a stream's
// chunk events together with its primary phases; they are never fed to the
// profiler, whose buckets are exclusive over primary stages only.
func (a *App) spanChunk(xfer int64, phase trace.PhaseKind, proc string, ch *Channel, bytes int, start, end sim.Time, chunk int) {
	if xfer == 0 {
		return
	}
	pe := trace.PhaseEvent{
		Xfer: xfer, Phase: phase, Proc: proc,
		Channel: ch.id, ChanType: int(ch.typ), Bytes: bytes,
		Start: start, End: end,
		Stream: xfer, Chunk: chunk + 1,
	}
	a.obs.flight.Record(pe)
	if a.obs.trace != nil {
		a.obs.trace.RecordPhase(pe)
	}
}

// Stream-backlog gauge directions.
const (
	streamSendDir = "send" // chunks injected but not yet landed on the wire
	streamRecvDir = "recv" // chunks announced by the header but not yet drained
)

// noteStreamInflight publishes a chunked stream's in-flight backlog: the
// live gauge tracks the most recent observation (what /metrics samples),
// the highwater gauge the run's worst case.
func (m *Meter) noteStreamInflight(dir string, n int) {
	g := "copilot/stream/inflight_" + dir
	m.reg.Gauge(g).Set(float64(n))
	m.reg.Gauge(g + "_highwater").SetMax(float64(n))
}

// meterStreamInflight feeds noteStreamInflight when a meter is attached.
func (a *App) meterStreamInflight(dir string, n int) {
	if m := a.obs.meter; m != nil {
		m.noteStreamInflight(dir, n)
	}
}

// profAttribute folds one phase into the profiler's exclusive buckets.
// PhaseCoPilotWait is deliberately excluded: it spans the requester's
// posting and waiting interval (already attributed on the SPE side), not
// Co-Pilot execution. A PhaseMailboxReq that contains fault-protocol
// reposts is split: the repost portion (noted by the stub via
// noteBackoff) lands in fault-backoff, the remainder in mbox-req.
func (a *App) profAttribute(pe trace.PhaseEvent) {
	prof := a.obs.prof
	d := pe.End - pe.Start
	switch pe.Phase {
	case trace.PhasePack:
		prof.Attribute(pe.Proc, profile.BucketPack, d)
	case trace.PhaseMailboxReq:
		if back := a.backoff[pe.Proc]; back > 0 {
			delete(a.backoff, pe.Proc)
			if back > d {
				back = d
			}
			prof.Attribute(pe.Proc, profile.BucketFaultBackoff, back)
			d -= back
		}
		prof.Attribute(pe.Proc, profile.BucketMboxReq, d)
	case trace.PhaseMailboxWait:
		prof.Attribute(pe.Proc, profile.BucketMboxWait, d)
	case trace.PhaseCoPilotService:
		prof.Attribute(pe.Proc, profile.BucketCoPilotService, d)
	case trace.PhaseCopy:
		prof.Attribute(pe.Proc, profile.BucketCopy, d)
	case trace.PhaseRelay:
		prof.Attribute(pe.Proc, profile.BucketRelay, d)
	case trace.PhaseMPISend:
		prof.Attribute(pe.Proc, profile.BucketMPISend, d)
	case trace.PhaseMPIWait:
		prof.Attribute(pe.Proc, profile.BucketMPIWait, d)
	case trace.PhaseChunkRelay:
		prof.Attribute(pe.Proc, profile.BucketChunkRelay, d)
	}
}

// noteBackoff records that proc spent d of its current mailbox request in
// the fault-protocol repost loop, so the profiler can attribute it to
// fault-backoff instead of mbox-req.
func (a *App) noteBackoff(proc string, d sim.Time) {
	if a.obs.prof == nil || d <= 0 {
		return
	}
	if a.backoff == nil {
		a.backoff = map[string]sim.Time{}
	}
	a.backoff[proc] += d
}

// meterOp records one completed channel operation (read or write side).
func (a *App) meterOp(ch *Channel, bytes int, dur sim.Time) {
	m := a.obs.meter
	if m == nil {
		return
	}
	prefix := "chan/" + ch.typ.String()
	m.reg.Counter(prefix + "/ops").Inc()
	m.reg.Counter(prefix + "/payload_bytes_total").Add(int64(bytes))
	m.reg.Histogram(prefix+"/latency_us", latencyBucketsUs).Observe(dur.Micros())
	m.reg.Histogram(prefix+"/payload_bytes", sizeBuckets).Observe(float64(bytes))
	if dur > 0 && bytes > 0 {
		mbps := float64(bytes) / (float64(dur) / float64(sim.Second)) / 1e6
		m.reg.Histogram(prefix+"/bandwidth_mbps", bwBucketsMBps).Observe(mbps)
	}
}

// meterCopilotReq records one decoded Co-Pilot request: how long it sat
// between the SPE posting it and the Co-Pilot decoding it (mailbox
// transfer + polling quantization + service-queue wait), and the queue
// depth found at decode time.
func (a *App) meterCopilotReq(label string, wait sim.Time, depth int) {
	m := a.obs.meter
	if m == nil {
		return
	}
	prefix := "copilot/" + label
	m.reg.Counter(prefix + "/requests").Inc()
	m.reg.Histogram(prefix+"/queue_wait_us", latencyBucketsUs).Observe(wait.Micros())
	m.reg.Histogram(prefix+"/queue_depth", depthBuckets).Observe(float64(depth))
}

// meterBlocked attributes d of proc p's virtual time to a blocked state.
func (a *App) meterBlocked(p *Process, k blockKind, d sim.Time) {
	if a.obs.meter == nil || d <= 0 {
		return
	}
	a.obs.meter.acc(p).blocked[k] += d
}

// meterProcStart marks the process alive from virtual time at (meter and
// profiler sinks).
func (a *App) meterProcStart(p *Process, at sim.Time) {
	if m := a.obs.meter; m != nil {
		m.acc(p).start = at
	}
	a.obs.prof.ProcStart(p.String(), at)
}

// meterProcEnd marks the process finished at virtual time at.
func (a *App) meterProcEnd(p *Process, at sim.Time) {
	if m := a.obs.meter; m != nil {
		acc := m.acc(p)
		acc.end = at
		acc.ended = true
	}
	a.obs.prof.ProcEnd(p.String(), at)
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
		lbl := cp.rank.Label()
		a.spanPhase(req.xfer, trace.PhaseCoPilotWait, lbl, req.ch, req.size, req.postedAt, req.decodeAt)
		a.spanPhase(req.xfer, trace.PhaseCoPilotService, lbl, req.ch, req.size, req.decodeAt, req.svcEnd)
	}
	if req.op == opRead {
		// A reading stub learns its transfer's id only here, from the
		// payload; a writing stub allocated the id itself.
		a.speSetDone(req.proc, req.xfer)
	}
}
