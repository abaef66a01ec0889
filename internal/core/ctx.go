package core

import (
	"fmt"

	"cellpilot/internal/deadlock"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
	"cellpilot/internal/trace"
)

// Ctx is the execution-phase handle of a regular Pilot process: the
// receiver for every PI_* call the process body makes.
type Ctx struct {
	app  *App
	P    *sim.Proc
	Self *Process
	rank *mpi.Rank
	// arrivals is writeChunked's per-chunk arrival log, kept across writes
	// so that streaming one allocates none.
	arrivals []sim.Time
}

// Index reports the index given at CreateProcess.
func (c *Ctx) Index() int { return c.Self.index }

// Arg reports the argument given at CreateProcess.
func (c *Ctx) Arg() any { return c.Self.arg }

// fail aborts the application with a Pilot diagnostic at the user's call
// site (loc from callerLoc) and unwinds this process.
func (c *Ctx) fail(loc, api, format string, args ...any) {
	c.P.Fatalf("%v", usageError(loc, api, format, args...))
}

// sendOn sends segs to rank dst on tag as one message, bounded by
// deadline and by ch's poisoning.
func (c *Ctx) sendOn(ch *Channel, dst, tag int, deadline sim.Time, segs ...[]byte) error {
	c.app.watch(ch, c.P)
	defer c.app.unwatch(ch, c.P)
	return c.rank.SendVecCtl(c.P, dst, tag, mpi.Ctl{Deadline: deadline, Stop: c.app.chanStop(ch)}, segs...)
}

// recvOn receives the next message from rank src on tag, bounded by
// deadline and by ch's poisoning.
func (c *Ctx) recvOn(ch *Channel, src, tag int, deadline sim.Time) ([]byte, mpi.Status, error) {
	c.app.watch(ch, c.P)
	defer c.app.unwatch(ch, c.P)
	return c.rank.RecvCtl(c.P, src, tag, mpi.Ctl{Deadline: deadline, Stop: c.app.chanStop(ch)})
}

// peerRank resolves the MPI rank this process exchanges channel payloads
// with: the peer itself when regular, or the peer's Co-Pilot when the
// peer is an SPE process (the heart of the CellPilot design).
func (c *Ctx) peerRank(peer *Process) int {
	if peer.IsSPE() {
		return c.app.copilotRankFor(peer)
	}
	return peer.rank
}

// Write sends args, described by the Pilot format string, on ch
// (PI_Write). Only the configured writer endpoint may call it.
func (c *Ctx) Write(ch *Channel, format string, args ...any) {
	loc := callerLoc(1)
	c.writeFrom(loc, "PI_Write", ch, 0, false, format, args...)
}

// TryWrite is Write bounded by a relative timeout (0 falls back to
// Options.OpTimeout). Instead of unwinding the process, a deadline expiry
// or poisoned channel is returned as a *ChannelFault; nil means the write
// completed. A TryWrite timeout does not poison the channel unless the
// operation died mid-protocol.
func (c *Ctx) TryWrite(ch *Channel, timeout sim.Time, format string, args ...any) error {
	loc := callerLoc(1)
	return c.writeFrom(loc, "PI_TryWrite", ch, timeout, true, format, args...)
}

func (c *Ctx) writeFrom(loc, api string, ch *Channel, timeout sim.Time, soft bool, format string, args ...any) error {
	if ch == nil {
		c.fail(loc, api, "nil channel")
	}
	if ch.From != c.Self {
		c.fail(loc, api, "%s is not the writer of %s", c.Self, ch)
	}
	c.app.obs.HostProf.Enter(hostprof.SubsysFmtmsg)
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.app.obs.HostProf.Exit()
		c.fail(loc, api, "%v", err)
	}
	// Pack into a pooled wire buffer: every transport below snapshots or
	// copies the bytes before returning, so the buffer recycles per call.
	bp := fmtmsg.GetWireBuf(0)
	defer fmtmsg.PutWireBuf(bp)
	wire, err := spec.PackInto(*bp, args...)
	c.app.obs.HostProf.Exit()
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	*bp = wire
	if ch.fault != nil {
		return c.app.failOp(loc, api, c.Self, ch, ch.fault, soft, false)
	}
	opStart := c.P.Now()
	deadline := c.app.opDeadline(opStart, timeout)
	c.P.Advance(c.app.par.PilotOverhead + c.app.par.PackTime(len(wire)))
	hdr := putHeader(spec.Signature(), len(wire))
	xfer := c.app.newXfer()
	self := c.Self.lbl
	c.app.spanPhase(xfer, trace.PhasePack, self, ch, len(wire), opStart, c.P.Now())

	if c.app.chunked(ch, len(wire)) {
		return c.writeChunked(loc, api, ch, spec, wire, xfer, opStart, deadline, soft)
	}

	// A1 ablation: type-2 writes go through a direct shared-memory handoff
	// to the Co-Pilot instead of local MPI.
	if c.app.opts.CoPilotDirectLocal && ch.typ == Type2 && ch.To.IsSPE() {
		copyStart := c.P.Now()
		c.P.Advance(c.app.par.ShmCopyTime(len(wire)))
		box := c.app.directBox(ch)
		msg := dbMsg{data: append(append([]byte(nil), hdr...), wire...), xfer: xfer}
		c.app.watch(ch, c.P)
		err := box.PutCtl(c.P, msg, deadline, c.app.chanStop(ch))
		c.app.unwatch(ch, c.P)
		if err != nil {
			return c.app.failOp(loc, api, c.Self, ch, err, soft, false)
		}
		c.app.copilotFor(ch.To).nudge()
		c.app.reportSent(ch)
		c.app.spanPhase(xfer, trace.PhaseCopy, self, ch, len(wire), copyStart, c.P.Now())
		c.Self.blocked[blockWrite] += c.P.Now() - copyStart
		c.app.record(c.P, trace.KindWrite, c.Self, ch, len(wire), xfer, c.P.Now()-opStart)
		return nil
	}

	dst := c.peerRank(ch.To)
	blocking := hdrSize+len(wire) > c.app.par.EagerThreshold
	if blocking {
		// A rendezvous send completes only when the reader posts the
		// matching receive; the detector pairs it with that read.
		c.app.reportBlock(c.Self, ch.To, ch, deadlock.OpWrite, loc)
	}
	sendStart := c.P.Now()
	c.rank.TagNextXfer(xfer)
	if err := c.sendOn(ch, dst, ch.tag(), deadline, hdr, wire); err != nil {
		return c.app.failOp(loc, api, c.Self, ch, err, soft, blocking)
	}
	if blocking {
		c.app.reportUnblock(c.Self)
	} else {
		// An eager send is in flight regardless of the reader: tell the
		// detector so a blocked read on ch is not treated as a wait.
		c.app.reportSent(ch)
	}
	c.app.spanPhase(xfer, trace.PhaseMPISend, self, ch, len(wire), sendStart, c.P.Now())
	c.Self.blocked[blockWrite] += c.P.Now() - sendStart
	c.app.record(c.P, trace.KindWrite, c.Self, ch, len(wire), xfer, c.P.Now()-opStart)
	return nil
}

// Read receives a message from ch into args (PI_Read). The format must
// describe the same element types the writer used, and the sizes must
// agree, or the application aborts with a diagnostic — the classes of
// error Pilot exists to catch.
func (c *Ctx) Read(ch *Channel, format string, args ...any) {
	loc := callerLoc(1)
	c.readFrom(loc, "PI_Read", ch, 0, false, format, args...)
}

// TryRead is Read bounded by a relative timeout (0 falls back to
// Options.OpTimeout). A deadline expiry or poisoned channel is returned
// as a *ChannelFault instead of unwinding the process; nil means the read
// completed and args are filled.
func (c *Ctx) TryRead(ch *Channel, timeout sim.Time, format string, args ...any) error {
	loc := callerLoc(1)
	return c.readFrom(loc, "PI_TryRead", ch, timeout, true, format, args...)
}

func (c *Ctx) readFrom(loc, api string, ch *Channel, timeout sim.Time, soft bool, format string, args ...any) error {
	if ch == nil {
		c.fail(loc, api, "nil channel")
	}
	if ch.To != c.Self {
		c.fail(loc, api, "%s is not the reader of %s", c.Self, ch)
	}
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	expected, err := spec.WireSize(args...)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	if ch.fault != nil {
		return c.app.failOp(loc, api, c.Self, ch, ch.fault, soft, false)
	}

	opStart := c.P.Now()
	deadline := c.app.opDeadline(opStart, timeout)
	self := c.Self.lbl
	var data []byte
	var xfer int64
	waitStart := c.P.Now()
	if c.app.opts.CoPilotDirectLocal && ch.typ == Type2 && ch.From.IsSPE() {
		// A1 ablation: take the payload from the direct handoff box.
		box := c.app.directBox(ch)
		c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
		c.app.watch(ch, c.P)
		msg, err := box.GetCtl(c.P, deadline, c.app.chanStop(ch))
		c.app.unwatch(ch, c.P)
		if err != nil {
			return c.app.failOp(loc, api, c.Self, ch, err, soft, true)
		}
		c.app.reportUnblock(c.Self)
		data, xfer = msg.data, msg.xfer
		c.app.spanPhase(xfer, trace.PhaseMPIWait, self, ch, len(data)-hdrSize, waitStart, c.P.Now())
		c.Self.blocked[blockRead] += c.P.Now() - waitStart
		copyStart := c.P.Now()
		c.P.Advance(c.app.par.ShmCopyTime(len(data) - hdrSize))
		c.app.spanPhase(xfer, trace.PhaseCopy, self, ch, len(data)-hdrSize, copyStart, c.P.Now())
	} else {
		if c.app.chunked(ch, expected) {
			return c.readChunked(loc, api, ch, spec, expected, opStart, deadline, soft, args...)
		}
		c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
		var st mpi.Status
		data, st, err = c.recvOn(ch, c.peerRank(ch.From), ch.tag(), deadline)
		if err != nil {
			return c.app.failOp(loc, api, c.Self, ch, err, soft, true)
		}
		c.app.reportUnblock(c.Self)
		xfer = st.Xfer
		c.app.spanPhase(xfer, trace.PhaseMPIWait, self, ch, len(data)-hdrSize, waitStart, c.P.Now())
		c.Self.blocked[blockRead] += c.P.Now() - waitStart
	}

	if len(data) < hdrSize {
		c.fail(loc, api, "malformed message on %s", ch)
	}
	sig, size := parseHeader(data)
	if sig != spec.Signature() {
		c.fail(loc, api, "format %q does not match what the writer sent on %s", format, ch)
	}
	if size != expected || size != len(data)-hdrSize {
		c.fail(loc, api, "size mismatch on %s: writer sent %d bytes, reader expects %d", ch, size, expected)
	}
	unpackStart := c.P.Now()
	c.P.Advance(c.app.par.PilotOverhead + c.app.par.PackTime(size))
	c.app.obs.HostProf.Enter(hostprof.SubsysFmtmsg)
	err = spec.Unpack(data[hdrSize:], args...)
	c.app.obs.HostProf.Exit()
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	c.app.spanPhase(xfer, trace.PhasePack, self, ch, size, unpackStart, c.P.Now())
	c.app.record(c.P, trace.KindRead, c.Self, ch, size, xfer, c.P.Now()-opStart)
	return nil
}

// writeChunked is the writer side of the chunk-stream protocol for regular
// processes (type 1, and type 3 when the writer is the regular end): send
// the stream header, then pipeline the payload in fixed-size chunks. Each
// chunk costs the writer only per-chunk stack injection; wire time is
// booked on the NIC asynchronously, throttled by the pipeline window.
// Unlike the rendezvous path, the write completes as soon as the last
// chunk is on the wire — bounded-buffered eager semantics.
func (c *Ctx) writeChunked(loc, api string, ch *Channel, spec *fmtmsg.Spec, wire []byte, xfer int64, opStart, deadline sim.Time, soft bool) error {
	dst := c.peerRank(ch.To)
	chunk := c.app.opts.Transfer.ChunkSize
	nchunks := chunkCount(len(wire), chunk)
	depth := c.app.pipeDepth()
	stag := ch.streamTag()
	sendStart := c.P.Now()
	c.rank.TagNextXfer(xfer)
	var hdr [streamHdrSize]byte
	putStreamHeader(hdr[:], spec.Signature(), len(wire), chunk, nchunks)
	c.app.watch(ch, c.P)
	defer c.app.unwatch(ch, c.P)
	stop := c.app.chanStop(ch)
	if err := c.rank.SendVecCtl(c.P, dst, stag, mpi.Ctl{Deadline: deadline, Stop: stop}, hdr[:]); err != nil {
		return c.app.failOp(loc, api, c.Self, ch, err, soft, false)
	}
	arrivals := c.arrivals[:0]
	for k := 0; k < nchunks; k++ {
		if k >= depth {
			if a := arrivals[k-depth]; a > c.P.Now() {
				c.P.AdvanceTo(a) // pipeline window full: wait for the oldest chunk to land
			}
		}
		// A stream abandoned mid-flight leaves the reader with a partial
		// payload, so — like an SPE-side mid-protocol timeout — the
		// channel is poisoned before the fault is surfaced.
		serr := stop()
		if serr == nil && deadline > 0 && c.P.Now() >= deadline {
			serr = mpi.ErrDeadline
		}
		if serr != nil {
			c.app.failChannel(ch, fmt.Sprintf("%s at %s abandoned a chunked stream on %s after %d of %d chunks", api, loc, ch, k, nchunks))
			return c.app.failOp(loc, api, c.Self, ch, serr, soft, false)
		}
		off := k * chunk
		n := chunkLen(len(wire), chunk, k)
		fb := fmtmsg.GetWireBuf(chunkIdxSize + n)
		frame := appendChunkFrame(*fb, k, wire[off:off+n])
		injStart := c.P.Now()
		arrivals = append(arrivals, c.rank.SendChunk(c.P, dst, stag, frame))
		*fb = frame
		fmtmsg.PutWireBuf(fb)
		c.app.spanChunk(xfer, trace.PhaseChunkFrame, c.Self.lbl, ch, n, injStart, c.P.Now(), k)
		inflight := 0
		for _, a := range arrivals {
			if a > c.P.Now() {
				inflight++
			}
		}
		c.app.noteStream(inflightSend, inflight)
	}
	c.arrivals = arrivals
	// The stream is buffered in flight regardless of the reader: tell the
	// detector so a blocked read on ch is not treated as a wait.
	c.app.reportSent(ch)
	self := c.Self.lbl
	c.app.spanPhase(xfer, trace.PhaseChunkRelay, self, ch, len(wire), sendStart, c.P.Now())
	c.Self.blocked[blockWrite] += c.P.Now() - sendStart
	c.app.record(c.P, trace.KindWrite, c.Self, ch, len(wire), xfer, c.P.Now()-opStart)
	return nil
}

// readChunked is the reader side of the chunk-stream protocol for regular
// processes: receive the header, drain the chunks into a pooled reassembly
// buffer (charging per-chunk stack extraction), then unpack in place. A
// drain abandoned by a deadline or stop poisons the channel — the partial
// payload is discarded, never delivered.
func (c *Ctx) readChunked(loc, api string, ch *Channel, spec *fmtmsg.Spec, expected int, opStart, deadline sim.Time, soft bool, args ...any) error {
	src := c.peerRank(ch.From)
	stag := ch.streamTag()
	self := c.Self.lbl
	par := c.app.par
	c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
	waitStart := c.P.Now()
	hdrData, st, err := c.recvOn(ch, src, stag, deadline)
	if err != nil {
		return c.app.failOp(loc, api, c.Self, ch, err, soft, true)
	}
	if len(hdrData) != streamHdrSize {
		c.fail(loc, api, "malformed stream header on %s", ch)
	}
	xfer := st.Xfer
	sig, size, _, nchunks := parseStreamHeader(hdrData)
	if sig != spec.Signature() {
		c.fail(loc, api, "format %q does not match what the writer sent on %s", spec.Format, ch)
	}
	if size != expected {
		c.fail(loc, api, "size mismatch on %s: writer sent %d bytes, reader expects %d", ch, size, expected)
	}
	c.app.spanPhase(xfer, trace.PhaseMPIWait, self, ch, size, waitStart, c.P.Now())
	drainStart := c.P.Now()
	bp := fmtmsg.GetWireBuf(size)
	defer fmtmsg.PutWireBuf(bp)
	buf := *bp
	for k := 0; k < nchunks; k++ {
		cdata, _, err := c.recvOn(ch, src, stag, deadline)
		if err != nil {
			c.app.failChannel(ch, fmt.Sprintf("%s at %s abandoned a chunked stream on %s after %d of %d chunks", api, loc, ch, k, nchunks))
			return c.app.failOp(loc, api, c.Self, ch, err, soft, true)
		}
		idx, payload, ok := parseChunkFrame(cdata)
		if !ok || idx != k {
			c.fail(loc, api, "stream chunk %d arrived out of order on %s (expected %d)", idx, ch, k)
		}
		chunkStart := c.P.Now()
		c.P.Advance(par.ChunkStackTime(len(payload)))
		buf = append(buf, payload...)
		c.app.spanChunk(xfer, trace.PhaseChunkFrame, self, ch, len(payload), chunkStart, c.P.Now(), k)
		c.app.noteStream(inflightRecv, nchunks-k-1)
	}
	*bp = buf
	c.app.reportUnblock(c.Self)
	c.app.spanPhase(xfer, trace.PhaseChunkRelay, self, ch, size, drainStart, c.P.Now())
	c.Self.blocked[blockRead] += c.P.Now() - waitStart
	if len(buf) != size {
		c.fail(loc, api, "stream on %s delivered %d bytes, header announced %d", ch, len(buf), size)
	}
	unpackStart := c.P.Now()
	c.P.Advance(par.PilotOverhead + par.PackTime(size))
	c.app.obs.HostProf.Enter(hostprof.SubsysFmtmsg)
	_, uerr := spec.UnpackFrom(buf, args...)
	c.app.obs.HostProf.Exit()
	if uerr != nil {
		c.fail(loc, api, "%v", uerr)
	}
	c.app.spanPhase(xfer, trace.PhasePack, self, ch, size, unpackStart, c.P.Now())
	c.app.record(c.P, trace.KindRead, c.Self, ch, size, xfer, c.P.Now()-opStart)
	return nil
}

// RunSPE launches a dormant SPE process created with CreateSPE
// (PI_RunSPE/PI_StartSPE): it loads the program plus the CellPilot runtime
// into the SPE local store and starts it with (arg, env), returning
// immediately while the SPE computes. Only the parent process may launch
// it — SPE processes form a hierarchy under their controlling PPE process.
func (c *Ctx) RunSPE(sp *Process, arg int, env any) {
	loc := callerLoc(1)
	if sp == nil || !sp.IsSPE() {
		c.fail(loc, "PI_RunSPE", "%v is not an SPE process", sp)
	}
	if sp.parent != c.Self {
		c.fail(loc, "PI_RunSPE", "%s must be started by its parent %s, not %s", sp, sp.parent, c.Self)
	}
	if sp.started {
		c.fail(loc, "PI_RunSPE", "%s already started", sp)
	}
	if sp.dead {
		// The SPE (or its node) was killed before launch: this parent's
		// operation faults, but the application keeps running degraded.
		c.app.raiseFault(c.Self, nil, &ChannelFault{
			Loc: loc, API: "PI_RunSPE", Channel: sp.String(), ChannelID: -1,
			Reason: "SPE process was killed by fault injection before launch",
		}, false)
	}
	node := c.app.Clu.Nodes[sp.nodeID]
	spe, err := node.SPE(sp.speIdx)
	if err != nil {
		c.fail(loc, "PI_RunSPE", "%v", err)
	}
	sctx, err := sdk.ContextCreate(c.app.K, spe)
	if err != nil {
		c.fail(loc, "PI_RunSPE", "%v", err)
	}
	app := c.app
	prog := &sdk.Program{
		Name:     sp.prog.Name,
		CodeSize: sp.prog.CodeSize,
		Main: func(sc *sdk.Context, a int, e any) {
			defer app.userDone()
			sp.life.begin(sc.Proc.Now())
			defer func() { sp.life.finish(sc.Proc.Now()) }()
			defer app.recoverFault(sp)
			sp.simProc = sc.Proc
			sctx2 := &SPECtx{app: app, P: sc.Proc, Self: sp, sctx: sc, arg: a, env: e}
			sp.prog.Body(sctx2)
		},
	}
	if err := sctx.Load(prog, c.app.par.CellPilotFootprint); err != nil {
		c.fail(loc, "PI_RunSPE", "%v", err)
	}
	c.P.Advance(c.app.par.SPELaunch)
	sp.started = true
	sp.sctx = sctx
	if inj := app.opts.Faults; inj != nil && inj.UsesMailbox() {
		// Route this SPE's mailbox words through the injector: its outbound
		// (descriptor) words can be dropped or stalled per the plan.
		name := sp.name
		spe.OutMbox.SetFaultHook(func() (bool, sim.Time) { return inj.MailboxVerdict(name) })
	}
	app.userLive++
	app.copilotFor(sp).register(sp, sctx)
	if err := sctx.Run(arg, env); err != nil {
		c.fail(loc, "PI_RunSPE", "%v", err)
	}
}

// Broadcast writes the same message to every channel of a broadcast
// bundle (PI_Broadcast). Following Pilot's MPMD convention, only the
// common (writing) endpoint calls this; each receiver simply calls Read
// on its own channel.
func (c *Ctx) Broadcast(b *Bundle, format string, args ...any) {
	loc := callerLoc(1)
	if b == nil || b.kind != BundleBroadcast {
		c.fail(loc, "PI_Broadcast", "bundle was not created for broadcast")
	}
	if b.common != c.Self {
		c.fail(loc, "PI_Broadcast", "%s is not the bundle's writer", c.Self)
	}
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.fail(loc, "PI_Broadcast", "%v", err)
	}
	wire, err := spec.Pack(args...)
	if err != nil {
		c.fail(loc, "PI_Broadcast", "%v", err)
	}
	c.P.Advance(c.app.par.PilotOverhead + c.app.par.PackTime(len(wire)))
	hdr := putHeader(spec.Signature(), len(wire))
	for _, ch := range b.chans {
		if ch.fault != nil {
			c.app.failOp(loc, "PI_Broadcast", c.Self, ch, ch.fault, false, false)
		}
		xfer := c.app.newXfer()
		sendStart := c.P.Now()
		c.rank.TagNextXfer(xfer)
		if err := c.sendOn(ch, c.peerRank(ch.To), ch.tag(), c.app.opDeadline(sendStart, 0), hdr, wire); err != nil {
			c.app.failOp(loc, "PI_Broadcast", c.Self, ch, err, false, false)
		}
		c.app.reportSent(ch)
		c.app.spanPhase(xfer, trace.PhaseMPISend, c.Self.lbl, ch, len(wire), sendStart, c.P.Now())
		c.Self.blocked[blockWrite] += c.P.Now() - sendStart
		c.app.record(c.P, trace.KindWrite, c.Self, ch, len(wire), xfer, c.P.Now()-sendStart)
	}
}

// Gather collects one contribution per channel of a gather bundle into
// out (PI_Gather). format describes a single per-writer item with a fixed
// count (e.g. "%5d"); out must be a slice of the matching element type
// with room for count × len(channels) elements, filled in channel order.
// Writers each call Write on their own channel with the same format.
func (c *Ctx) Gather(b *Bundle, format string, out any) {
	loc := callerLoc(1)
	if b == nil || b.kind != BundleGather {
		c.fail(loc, "PI_Gather", "bundle was not created for gather")
	}
	if b.common != c.Self {
		c.fail(loc, "PI_Gather", "%s is not the bundle's reader", c.Self)
	}
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.fail(loc, "PI_Gather", "%v", err)
	}
	if len(spec.Items) != 1 || spec.Items[0].Star {
		c.fail(loc, "PI_Gather", "gather format must be a single fixed-count item, got %q", format)
	}
	item := spec.Items[0]
	perWriter := item.Count * item.Type.Size()
	var all []byte
	for _, ch := range b.chans {
		if ch.fault != nil {
			c.app.failOp(loc, "PI_Gather", c.Self, ch, ch.fault, false, false)
		}
		waitStart := c.P.Now()
		c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
		data, st, err := c.recvOn(ch, c.peerRank(ch.From), ch.tag(), c.app.opDeadline(waitStart, 0))
		if err != nil {
			c.app.failOp(loc, "PI_Gather", c.Self, ch, err, false, true)
		}
		c.app.reportUnblock(c.Self)
		if len(data) < hdrSize {
			c.fail(loc, "PI_Gather", "malformed message on %s", ch)
		}
		c.app.spanPhase(st.Xfer, trace.PhaseMPIWait, c.Self.lbl, ch, len(data)-hdrSize, waitStart, c.P.Now())
		c.Self.blocked[blockRead] += c.P.Now() - waitStart
		c.app.record(c.P, trace.KindRead, c.Self, ch, len(data)-hdrSize, st.Xfer, c.P.Now()-waitStart)
		sig, size := parseHeader(data)
		if sig != spec.Signature() || size != perWriter {
			c.fail(loc, "PI_Gather", "writer on %s sent %d bytes with a different format; expected %q (%d bytes)",
				ch, size, format, perWriter)
		}
		all = append(all, data[hdrSize:]...)
	}
	c.P.Advance(c.app.par.PilotOverhead + c.app.par.PackTime(len(all)))
	total := item.Count * len(b.chans)
	synth := fmtmsg.MustParse(fmt.Sprintf("%%%d%s", total, item.Type.Verb()))
	if err := synth.Unpack(all, out); err != nil {
		c.fail(loc, "PI_Gather", "%v", err)
	}
}

// Select blocks until some channel in a select bundle has data ready to
// read, and returns its index within the bundle (PI_Select). A subsequent
// Read on that channel will not block.
func (c *Ctx) Select(b *Bundle) int {
	loc := callerLoc(1)
	if b == nil || b.kind != BundleSelect {
		c.fail(loc, "PI_Select", "bundle was not created for select")
	}
	if b.common != c.Self {
		c.fail(loc, "PI_Select", "%s is not the bundle's reader", c.Self)
	}
	c.P.Advance(c.app.par.PilotOverhead)
	specs := make([]mpi.ProbeSpec, 0, len(b.chans))
	owner := make([]int, 0, len(b.chans))
	for i, ch := range b.chans {
		specs = append(specs, mpi.ProbeSpec{Src: c.peerRank(ch.From), Tag: ch.tag()})
		owner = append(owner, i)
		if c.app.streamEligible(ch) {
			// A chunked transfer announces itself on the stream tag, so an
			// eligible channel is ready when either tag has data.
			specs = append(specs, mpi.ProbeSpec{Src: c.peerRank(ch.From), Tag: ch.streamTag()})
			owner = append(owner, i)
		}
	}
	waitStart := c.P.Now()
	idx, _ := c.rank.ProbeMulti(c.P, specs)
	c.Self.blocked[blockRead] += c.P.Now() - waitStart
	return owner[idx]
}

// TrySelect is the non-blocking Select: it returns the index of a channel
// with data, or -1 (PI_TrySelect).
func (c *Ctx) TrySelect(b *Bundle) int {
	loc := callerLoc(1)
	if b == nil || b.kind != BundleSelect {
		c.fail(loc, "PI_TrySelect", "bundle was not created for select")
	}
	if b.common != c.Self {
		c.fail(loc, "PI_TrySelect", "%s is not the bundle's reader", c.Self)
	}
	c.P.Advance(c.app.par.PilotOverhead)
	for i, ch := range b.chans {
		if _, ok := c.rank.Iprobe(c.P, c.peerRank(ch.From), ch.tag()); ok {
			return i
		}
		if c.app.streamEligible(ch) {
			if _, ok := c.rank.Iprobe(c.P, c.peerRank(ch.From), ch.streamTag()); ok {
				return i
			}
		}
	}
	return -1
}

// HasData reports whether a Read on ch would complete without blocking
// (PI_ChannelHasData).
func (c *Ctx) HasData(ch *Channel) bool {
	loc := callerLoc(1)
	if ch == nil || ch.To != c.Self {
		c.fail(loc, "PI_ChannelHasData", "%s is not the reader of %v", c.Self, ch)
	}
	c.P.Advance(c.app.par.PilotOverhead)
	if _, ok := c.rank.Iprobe(c.P, c.peerRank(ch.From), ch.tag()); ok {
		return true
	}
	if c.app.streamEligible(ch) {
		_, ok := c.rank.Iprobe(c.P, c.peerRank(ch.From), ch.streamTag())
		return ok
	}
	return false
}

// Log emits a trace line tagged with the process and virtual time; a
// stand-in for the printf debugging the paper's examples use.
func (c *Ctx) Log(format string, args ...any) {
	c.app.logf(c.P, c.Self, format, args...)
}
