package core

import (
	"errors"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/metrics"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
	"cellpilot/internal/trace"
)

// copilot is the Co-Pilot: the second MPI process CellPilot creates on
// each Cell node (paper Section IV.B). It services the four SPE-connected
// channel types: SPE stubs post read/write requests through their
// mailboxes; the Co-Pilot translates the request's local-store address
// into a main-memory effective address and then moves the payload with
// MPI (types 2, 3, 5) or a plain memcpy (type 4), signalling completion
// back through the SPE's inbound mailbox. It is a separate process, not a
// thread, so it works under MPI_THREAD_SINGLE — the constraint the paper
// calls out explicitly.
type copilot struct {
	app    *App
	key    copilotKey
	nodeID int
	rank   *mpi.Rank
	lbl    trace.Label // its label in the App's tracks
	q      *sim.Queue[struct{}]
	proc   *sim.Proc
	dead   bool
	// nudge wakes the event loop; safe from any context. It is built
	// once, so handing it to the kernel as a callback allocates nothing.
	nudge func()
	// descOf is the stub whose descriptor readDesc reads (or last read),
	// descRead the words of it read so far, and descWait is set while the
	// read waits for the next, so that the stub can wake it (cutDesc).
	// descStop, built once, ends that wait when the stub gave the
	// descriptor up after descRead words.
	descOf   *Process
	descRead uint8
	descWait bool
	descStop func() error
	// notifying is the request whose completion notify writes;
	// notifyStop, built once, withholds the word if its stub gives the
	// request up during the write.
	notifying  *speReq
	notifyStop func() error

	bindings   []*speBinding
	pendWrites reqQueue
	pendReads  reqQueue
	reqFree    []*speReq // completed requests' records, for newReq
	// hdr is a relayed message's validation header: written before a
	// relay send, received into by a relay receive. segs and segs2 list
	// the page segments of the buffers one step moves: segs a request's
	// local-store buffer (after hdr, for a relay), segs2 the type-4
	// reader's buffer or one chunk of segs. The loop moves one message at
	// a time, and every list is reused.
	hdr         [hdrSize]byte
	segs, segs2 [][]byte
	// scanW/scanR rotate the pending-scan start when the chunk engine is on,
	// so concurrent streams interleave chunk-by-chunk instead of the first
	// stream monopolizing the loop. With chunking off the scan always starts
	// at 0, preserving the pre-engine service order exactly.
	scanW, scanR int
	// streamAdvanced is set by streamWrite/streamRead when they moved one
	// chunk but the stream is not finished: the request stays pending, yet
	// the step counts as work done.
	streamAdvanced bool
	stats          CoPilotStats
	// busy is the cumulative virtual time the service loop spent doing work
	// (stepping requests), as opposed to parked on the event queue. Divided
	// by elapsed virtual time it is the Co-Pilot's utilization.
	busy sim.Time
	life lifetime
	// The Meter's entries for this Co-Pilot, looked up at its first
	// request (see meterReq).
	reqs        *metrics.Counter
	wait, depth *metrics.Histogram
}

type speBinding struct {
	proc *Process
	sctx *sdk.Context
	// lastSeq is the sequence number of the most recently accepted
	// descriptor (mailbox-hardened runs); a repost of the same sequence is
	// a duplicate caused by a slow ACK and is re-ACKed but not dispatched.
	lastSeq int
}

const (
	speStatusOK uint32 = 0
)

func newCopilot(a *App, key copilotKey, rank *mpi.Rank) *copilot {
	cp := &copilot{
		app:    a,
		key:    key,
		nodeID: key.node,
		rank:   rank,
		q:      sim.NewQueue[struct{}](a.K, rank.Label()+"/events", 1<<14),
	}
	cp.nudge = func() { cp.q.TryPut(struct{}{}) }
	cp.descStop = func() error {
		if cp.descOf.cut&3 == cp.descRead {
			return errDescCut
		}
		cp.descWait = true
		return nil
	}
	cp.notifyStop = func() error {
		if r := cp.notifying; r.post != r.proc.awaiting {
			return errGaveUp
		}
		return nil
	}
	// Message arrivals for this rank nudge the event loop, so the Co-Pilot
	// never busy-waits yet still models polling latency (see loop).
	rank.OnArrival(cp.nudge)
	return cp
}

// register adds a newly launched SPE process to the polling set. Called by
// RunSPE before the SPE can issue its first request.
func (cp *copilot) register(sp *Process, sctx *sdk.Context) {
	cp.bindings = append(cp.bindings, &speBinding{proc: sp, sctx: sctx, lastSeq: -1})
	cp.nudge()
}

// newReq returns a record holding r, recycled when one is free.
func (cp *copilot) newReq(r speReq) *speReq {
	n := len(cp.reqFree)
	if n == 0 {
		req := new(speReq)
		*req = r
		return req
	}
	req := cp.reqFree[n-1]
	cp.reqFree = cp.reqFree[:n-1]
	arrivals, dmaAt := req.stream.arrivals, req.stream.dmaAt
	*req = r
	req.stream.arrivals, req.stream.dmaAt = arrivals, dmaAt
	return req
}

// freeReq recycles a completed request: it has left the pending queues
// and its SPE has been notified, so nothing refers to it. The record
// keeps its stream slices' storage for the next chunked request.
func (cp *copilot) freeReq(req *speReq) {
	*req = speReq{stream: streamSend{arrivals: req.stream.arrivals[:0], dmaAt: req.stream.dmaAt[:0]}}
	cp.reqFree = append(cp.reqFree, req)
}

// loop is the Co-Pilot service loop. It blocks on the event queue; each
// wakeup is quantized to the next mailbox polling tick (modelling the
// paper's polling design and its latency contribution), then processes
// requests to a fixpoint.
func (cp *copilot) loop(p *sim.Proc) {
	for {
		if cp.app.allDone.Fired() {
			return
		}
		cp.q.Get(p)
		if cp.app.allDone.Fired() {
			return
		}
		for {
			if poll := cp.app.par.CoPilotPoll; poll > 0 {
				tick := (p.Now() + poll - 1) / poll * poll
				p.AdvanceTo(tick)
			}
			t0 := p.Now()
			advanced := cp.step(p)
			cp.busy += p.Now() - t0
			if !advanced {
				break
			}
		}
	}
}

// step performs at most one unit of Co-Pilot work — decoding one new
// mailbox request (progressing it immediately when possible) or
// progressing one pending request — and reports whether anything
// advanced. One unit per polling tick models the serial service loop the
// paper describes ("Co-Pilot polls for requests until the second SPE's
// request arrives") and is what makes SPE↔SPE channels pay two full
// Co-Pilot legs, as Table II shows.
func (cp *copilot) step(p *sim.Proc) bool {
	// Once a channel was poisoned or a process killed, shed queued
	// requests whose process died or whose channel was poisoned, so a
	// dead peer cannot strand its partner.
	if cp.app.faulted && cp.sweepFaults(p) {
		return true
	}
	// First progress pending requests, oldest first (deterministic). With
	// the chunk engine on, the scan start rotates past the last serviced
	// request so concurrent streams share the loop fairly.
	if done, i := cp.scanPending(p, &cp.pendWrites, cp.scanW, cp.tryWrite); done {
		cp.scanW = i
		return true
	}
	if done, i := cp.scanPending(p, &cp.pendReads, cp.scanR, cp.tryRead); done {
		cp.scanR = i
		return true
	}
	// Then decode one new request from the SPE mailboxes.
	hardened := cp.app.hardened()
	mh := cp.app.mailboxHardened()
	for _, b := range cp.bindings {
		if b.proc.dead {
			continue
		}
		decodeStart := p.Now()
		w0, ok := b.sctx.TryReadOutMbox(p)
		if !ok {
			continue
		}
		posted := b.proc.posts
		var op speOpcode
		var chanID int
		var seq uint32
		if mh {
			op, seq, chanID = parseWord0Seq(w0)
		} else {
			op, chanID = parseWord0(w0)
		}
		// A descriptor that stops short (see readDesc) or is invalid is
		// dropped, and NACKed in mailbox-hardened runs so the stub
		// reposts. Without fault machinery nothing can garble a complete
		// descriptor, so an invalid one there is a bug and aborts the run.
		words, cut, ok := cp.readDesc(p, b)
		if !ok || (op != opWrite && op != opRead) || chanID < 0 || chanID >= len(cp.app.chans) {
			if ok && !hardened {
				p.Fatalf("%v", usageError("runtime", "co-pilot", "SPE %s requested unknown channel %d", b.proc, chanID))
			}
			cp.dropDesc(p, b, seq, cut)
			return true
		}
		lsAddr, size, sig := words[0], words[1], words[2]
		if mh {
			if b.lastSeq == int(seq) {
				// Duplicate repost after a slow ACK: re-ACK, discard.
				cp.ackDesc(p, b, speAck(seq))
				return true
			}
			b.lastSeq = int(seq)
			cp.ackDesc(p, b, speAck(seq))
		}
		post := cp.app.speTakePost(b.proc)
		req := cp.newReq(speReq{
			op: op, ch: cp.app.chans[chanID],
			spe: b.sctx.SPE, proc: b.proc,
			lsAddr: lsAddr, size: int(size), sig: sig, post: posted,
			xfer: post.xfer, postedAt: post.postedAt, decodeAt: decodeStart,
		})
		p.Advance(cp.app.par.CoPilotDispatch)
		req.svcEnd = p.Now()
		cp.meterReq(decodeStart-post.postedAt, cp.pendWrites.size()+cp.pendReads.size())
		if op == opWrite {
			cp.stats.WriteReqs++
		} else {
			cp.stats.ReadReqs++
		}
		// Under the per-Cell ablation, a type-4 channel whose endpoints
		// live under different Co-Pilots is owned by the writer's: forward
		// the reader's request there (any PPE can signal any local SPE's
		// mailbox, so the owner can still notify the reader directly).
		if op == opRead && req.ch.typ == Type4 {
			if owner := cp.app.copilotFor(req.ch.From); owner != cp {
				owner.pendReads.push(req)
				owner.nudge()
				return true
			}
		}
		switch {
		case op == opWrite && !cp.tryWrite(p, req):
			cp.streamAdvanced = false
			cp.pendWrites.push(req)
		case op == opRead && !cp.tryRead(p, req):
			cp.streamAdvanced = false
			cp.pendReads.push(req)
		default:
			cp.freeReq(req)
		}
		return true
	}
	return false
}

// scanPending walks one pending queue looking for a request that can make
// progress. It returns done=true when a request completed (it is removed)
// or when a stream moved one chunk (it stays queued), along with the
// logical index the next scan should start from. With the chunk engine off
// the start is pinned to 0, reproducing the pre-engine oldest-first order.
func (cp *copilot) scanPending(p *sim.Proc, q *reqQueue, scan int, try func(*sim.Proc, *speReq) bool) (bool, int) {
	n := q.size()
	if n == 0 {
		return false, 0
	}
	start := 0
	if cp.app.chunkingOn() {
		start = scan % n
	}
	for k := 0; k < n; k++ {
		i := (start + k) % n
		req := q.at(i)
		if try(p, req) {
			q.removeAt(i)
			cp.freeReq(req)
			return true, i
		}
		if cp.streamAdvanced {
			cp.streamAdvanced = false
			return true, i + 1
		}
	}
	return false, start
}

// sweepFaults drops queued requests whose SPE process has died and
// fault-notifies those whose channel was poisoned (a dead peer, a timed
// out partner). Reports whether anything was shed.
func (cp *copilot) sweepFaults(p *sim.Proc) bool {
	shed := false
	cp.pendWrites.filter(func(req *speReq) bool {
		if cp.shedFaulted(p, req) {
			shed = true
			return false
		}
		return true
	})
	cp.pendReads.filter(func(req *speReq) bool {
		if cp.shedFaulted(p, req) {
			shed = true
			return false
		}
		return true
	})
	return shed
}

// shedFaulted reports whether req must be dropped from the pending
// queues, notifying its (living) SPE with a fault status when the
// channel is poisoned.
func (cp *copilot) shedFaulted(p *sim.Proc, req *speReq) bool {
	inj := cp.app.opts.Faults
	if req.proc.dead {
		inj.Logf(p.Now(), "%s drops queued request from dead %s on %s", cp.rank.Label(), req.proc, req.ch)
		return true
	}
	if req.ch.fault != nil {
		inj.Logf(p.Now(), "%s faults queued request from %s on poisoned %s", cp.rank.Label(), req.proc, req.ch)
		cp.notify(p, req, speStatusFault)
		return true
	}
	return false
}

// readDesc reads the last three words of a descriptor whose first word
// it read from b's stub. ok is false when a word did not come within
// descTimeout of the end of its read's MailboxRead charge, and cut says
// the stub gave the descriptor up part-way (Process.cut). In hardened runs
// a timer bounds each read, as a fault can lose a word or its stub
// unseen. Elsewhere a word fails to come only if its stub gave up, which
// the read learns from the stub, so it arms no timer and waits out the
// bound itself: a cut descriptor is dropped at the same instant in every
// App.
func (cp *copilot) readDesc(p *sim.Proc, b *speBinding) (words [3]uint32, cut, ok bool) {
	cp.descOf = b.proc
	for i := range words {
		bound := p.Now() + cp.app.par.MailboxRead + cp.app.descTimeout()
		deadline := sim.Time(0)
		if cp.app.hardened() {
			deadline = bound
		}
		cp.descRead = uint8(i + 1)
		v, err := b.sctx.ReadOutMboxCtl(p, deadline, cp.descStop)
		cp.descWait = false
		if err == errDescCut {
			b.proc.cut >>= 2
			p.AdvanceTo(bound)
			return words, true, false
		}
		if err != nil {
			return words, false, false
		}
		words[i] = v
	}
	return words, false, true
}

// errDescCut ends a descriptor-word read whose stub gave the descriptor
// up before writing that word, and errGaveUp a completion write whose
// stub gave the request up.
var (
	errDescCut = errors.New("co-pilot: descriptor cut short")
	errGaveUp  = errors.New("co-pilot: the stub gave the request up")
)

// dropDesc discards a garbled descriptor: the mailbox is drained of what
// is left of it, down to the poll that finds it empty, and, in
// mailbox-hardened runs, the stub is NACKed so it reposts immediately
// (otherwise it reposts on ACK timeout, or the fault surfaces as an
// operation timeout). A descriptor its stub cut short left nothing, and
// the mailbox may already hold the stub's next one, so then that poll
// only checks the mailbox's status.
func (cp *copilot) dropDesc(p *sim.Proc, b *speBinding, seq uint32, cut bool) {
	if cut {
		p.Advance(cp.app.par.MailboxRead)
	} else {
		for {
			if _, ok := b.sctx.TryReadOutMbox(p); !ok {
				break
			}
		}
	}
	inj := cp.app.opts.Faults
	if cp.app.mailboxHardened() {
		inj.Counts.MailboxNacks++
		inj.Logf(p.Now(), "%s NACKs garbled descriptor seq=%d from %s", cp.rank.Label(), seq, b.proc)
		cp.ackDesc(p, b, speNack(seq))
	} else {
		inj.Logf(p.Now(), "%s drops garbled descriptor from %s", cp.rank.Label(), b.proc)
	}
}

// ackDesc writes an ACK/NACK word to a stub's inbound mailbox. The write
// is deadline-bounded so a stub that died or gave up mid-protocol cannot
// wedge the Co-Pilot; a dropped ACK is recovered by the stub's repost.
func (cp *copilot) ackDesc(p *sim.Proc, b *speBinding, word uint32) {
	if b.proc.dead {
		return
	}
	if err := b.sctx.SPE.InMbox.WriteCtl(p, word, p.Now()+cp.app.ackTimeout(), nil); err != nil {
		cp.app.opts.Faults.Logf(p.Now(), "%s drops mailbox ack for %s (%v)", cp.rank.Label(), b.proc, err)
	}
}

// lsSegments appends to dst the page segments of a request's buffer,
// resolved through the node's EA map — the spe_ls_area_get trick at the
// heart of CellPilot's zero-copy transfers.
func (cp *copilot) lsSegments(p *sim.Proc, req *speReq, dst [][]byte) [][]byte {
	node := cp.app.Clu.Nodes[cp.nodeID]
	ea := req.spe.LSBase() + int64(req.lsAddr)
	segs, err := node.EASegments(ea, req.size, dst)
	if err != nil {
		p.Fatalf("%v", usageError("runtime", "co-pilot", "bad SPE buffer from %s: %v", req.proc, err))
	}
	return segs
}

// relaySegments sets cp.segs to a relayed message's segments: the header
// buffer, then req's local-store buffer.
func (cp *copilot) relaySegments(p *sim.Proc, req *speReq) [][]byte {
	cp.segs = cp.lsSegments(p, req, append(cp.segs[:0], cp.hdr[:]))
	return cp.segs
}

// notify completes a request toward its SPE via the inbound mailbox,
// unless no stub waits for the word: the request's process died, its
// channel was poisoned (an OK status is suppressed; its stub fails the
// operation), or its stub gave up on it, whose word would otherwise read
// as a later operation's status. The stub can still give up while the
// word is being written, so the write stops then too (notifyStop). In
// hardened runs the write is deadline-bounded so a vanished stub cannot
// wedge the Co-Pilot.
func (cp *copilot) notify(p *sim.Proc, req *speReq, status uint32) {
	if req.proc.dead {
		return
	}
	if req.ch.fault != nil && status == speStatusOK {
		cp.app.opts.Faults.Logf(p.Now(), "%s suppresses completion for %s on poisoned %s", cp.rank.Label(), req.proc, req.ch)
		return
	}
	if req.post != req.proc.awaiting {
		return
	}
	deadline := sim.Time(0)
	if cp.app.hardened() {
		deadline = p.Now() + cp.app.ackTimeout()
	}
	cp.notifying = req
	if err := req.spe.InMbox.WriteCtl(p, status, deadline, cp.notifyStop); err != nil {
		cp.app.opts.Faults.Logf(p.Now(), "%s drops completion for %s (%v)", cp.rank.Label(), req.proc, err)
	}
}

// tryWrite progresses a pending SPE write request; false means it must
// wait (only type 4, for its matching reader).
func (cp *copilot) tryWrite(p *sim.Proc, req *speReq) bool {
	ch := req.ch
	switch ch.typ {
	case Type4:
		// Both SPE processes send their buffer addresses; whichever arrives
		// first is stored until the other shows up, then the Co-Pilot
		// transfers the data with memcpy and notifies both mailboxes.
		var rd *speReq
		for i := 0; i < cp.pendReads.size(); i++ {
			if r := cp.pendReads.at(i); r.ch == ch {
				rd = r
				cp.pendReads.removeAt(i)
				break
			}
		}
		if rd == nil {
			return false
		}
		cp.validatePair(p, req, rd)
		rd.xfer = req.xfer // the reader's span is the writer's transfer
		cp.segs = cp.lsSegments(p, req, cp.segs[:0])
		cp.segs2 = cp.lsSegments(p, rd, cp.segs2[:0])
		copyStart := p.Now()
		if cp.app.opts.Transfer.ZeroCopyType4 {
			// B3 fast path: the Co-Pilot programs an LS→LS DMA over the EIB
			// instead of dragging the payload through the mapped-LS memcpy —
			// it pays command issue plus EIB time, not two uncached copies.
			p.Advance(cp.app.par.DMASetup + cp.app.par.EIBTime(req.size))
		} else {
			p.Advance(cp.app.par.MemcpyTime(req.size))
		}
		cellbe.CopySegments(cp.segs2, cp.segs)
		cp.app.spanPhase(req.xfer, trace.PhaseCopy, cp.lbl, ch, req.size, copyStart, p.Now())
		cp.stats.Type4Copies++
		cp.stats.Type4Bytes += int64(req.size)
		cp.obsComplete(req)
		cp.notify(p, req, speStatusOK)
		cp.obsComplete(rd)
		cp.notify(p, rd, speStatusOK)
		cp.freeReq(rd)
		return true

	case Type2, Type3:
		if cp.app.chunked(ch, req.size) { // type 3 only: type 2 is intra-node
			return cp.streamWrite(p, req, ch.To.rank)
		}
		// Peer is a regular process: relay the LS buffer to it over MPI,
		// with the validation header prepended. The relay is nonblocking
		// (the payload is snapshotted): a blocking send here could form a
		// circular wait with a PPE that is itself rendezvous-sending
		// toward this Co-Pilot.
		copy(cp.hdr[:], putHeader(req.sig, req.size))
		segs := cp.relaySegments(p, req)
		relayStart := p.Now()
		if cp.app.opts.CoPilotDirectLocal && ch.typ == Type2 {
			// A1 ablation: hand the payload to the local reader directly —
			// same per-byte copy as the MPI path, none of its overheads.
			p.Advance(cp.app.par.ShmCopyTime(req.size))
			buf := make([]byte, hdrSize+req.size)
			cellbe.CopySegments([][]byte{buf}, segs)
			cp.app.directBox(ch).Put(p, dbMsg{data: buf, xfer: req.xfer})
			cp.app.spanPhase(req.xfer, trace.PhaseCopy, cp.lbl, ch, req.size, relayStart, p.Now())
		} else {
			cp.rank.TagNextXfer(req.xfer)
			cp.rank.IsendVec(p, ch.To.rank, ch.tag(), segs...)
			cp.app.spanPhase(req.xfer, trace.PhaseRelay, cp.lbl, ch, req.size, relayStart, p.Now())
		}
		cp.stats.RelayedBytes += int64(req.size)
		cp.obsComplete(req)
		cp.notify(p, req, speStatusOK)
		return true

	case Type5:
		if cp.app.chunked(ch, req.size) {
			return cp.streamWrite(p, req, cp.app.copilotRankFor(ch.To))
		}
		// Peer is a remote SPE: relay to its Co-Pilot, also nonblocking.
		copy(cp.hdr[:], putHeader(req.sig, req.size))
		segs := cp.relaySegments(p, req)
		relayStart := p.Now()
		cp.rank.TagNextXfer(req.xfer)
		cp.rank.IsendVec(p, cp.app.copilotRankFor(ch.To), ch.tag(), segs...)
		cp.app.spanPhase(req.xfer, trace.PhaseRelay, cp.lbl, ch, req.size, relayStart, p.Now())
		cp.stats.RelayedBytes += int64(req.size)
		cp.obsComplete(req)
		cp.notify(p, req, speStatusOK)
		return true

	default:
		p.Fatalf("%v", usageError("runtime", "co-pilot", "write request on %s, which has no SPE endpoint", ch))
		return false
	}
}

// tryRead progresses a pending SPE read request; false means the payload
// has not arrived yet.
func (cp *copilot) tryRead(p *sim.Proc, req *speReq) bool {
	ch := req.ch
	switch ch.typ {
	case Type4:
		// Driven from the matching write request in tryWrite.
		return false

	case Type2, Type3, Type5:
		src := ch.From.rank
		if ch.From.IsSPE() { // type 5: payload comes from the writer's Co-Pilot
			src = cp.app.copilotRankFor(ch.From)
		}
		if cp.app.chunked(ch, req.size) {
			return cp.streamRead(p, req, src)
		}
		if cp.app.opts.CoPilotDirectLocal && ch.typ == Type2 && !ch.From.IsSPE() {
			// A1 ablation: the local writer handed the payload off directly.
			msg, ok := cp.app.directBox(ch).TryGet()
			if !ok {
				return false
			}
			req.xfer = msg.xfer
			sig, size := parseHeader(msg.data)
			cp.validateIncoming(p, req, sig, size)
			copyStart := p.Now()
			p.Advance(cp.app.par.ShmCopyTime(req.size))
			cp.segs = cp.lsSegments(p, req, cp.segs[:0])
			cellbe.CopySegments(cp.segs, [][]byte{msg.data[hdrSize:]})
			cp.app.spanPhase(req.xfer, trace.PhaseCopy, cp.lbl, ch, req.size, copyStart, p.Now())
			cp.obsComplete(req)
			cp.notify(p, req, speStatusOK)
			return true
		}
		st, ok := cp.rank.Iprobe(p, src, ch.tag())
		if !ok {
			return false
		}
		if st.Count != hdrSize+req.size {
			p.Fatalf("%v", usageError("runtime", "PI_Read", "size mismatch on %s: writer sent %d bytes, SPE reader %s expects %d",
				ch, st.Count-hdrSize, req.proc, req.size))
		}
		req.xfer = st.Xfer
		segs := cp.relaySegments(p, req)
		recvStart := p.Now()
		cp.rank.RecvIntoVec(p, src, ch.tag(), segs...)
		cp.app.spanPhase(req.xfer, trace.PhaseRelay, cp.lbl, ch, req.size, recvStart, p.Now())
		sig, size := parseHeader(cp.hdr[:])
		cp.validateIncoming(p, req, sig, size)
		cp.obsComplete(req)
		cp.notify(p, req, speStatusOK)
		return true

	default:
		p.Fatalf("%v", usageError("runtime", "co-pilot", "read request on %s, which has no SPE endpoint", ch))
		return false
	}
}

// streamWrite progresses a writer-side chunk stream: announce once with a
// header, then inject at most one chunk per call (so concurrent streams
// interleave), each chunk gated on its own LS→EA DMA and on the pipeline
// window. The SPE is notified only after the last chunk is on the wire.
func (cp *copilot) streamWrite(p *sim.Proc, req *speReq, dst int) bool {
	app := cp.app
	par := app.par
	chunk := app.opts.Transfer.ChunkSize
	st := &req.stream
	if st.nchunks == 0 {
		st.dst, st.nchunks, st.startAt = dst, chunkCount(req.size, chunk), p.Now()
		cp.rank.TagNextXfer(req.xfer)
		var hdr [streamHdrSize]byte
		putStreamHeader(hdr[:], req.sig, req.size, chunk, st.nchunks)
		cp.rank.SendVec(p, dst, req.ch.streamTag(), hdr[:])
		// Issue the whole stream's LS→EA fetches as one DMA list: the MFC
		// works through the elements back to back while the Co-Pilot injects
		// chunks, so fetch k+1 overlaps chunk k's stack serialization. The
		// payload cannot change underneath it — the writer stub is parked
		// until the stream completes.
		res := app.dmaRes(req.spe)
		for k := 0; k < st.nchunks; k++ {
			n := chunkLen(req.size, chunk, k)
			d := par.ChunkDMATime(n)
			st.dmaAt = append(st.dmaAt, res.ReserveFor(d))
			app.spanChunk(req.xfer, trace.PhaseChunkDMA, req.proc.lbl, req.ch, n, st.dmaAt[k]-d, st.dmaAt[k], k)
		}
	}
	target := st.dmaAt[st.next]
	if depth := app.pipeDepth(); st.next >= depth {
		if a := st.arrivals[st.next-depth]; a > target {
			target = a // pipeline window full: wait for the oldest in-flight chunk
		}
	}
	if now := p.Now(); now < target {
		app.K.After(target-now, cp.nudge)
		return false
	}
	off := st.next * chunk
	n := chunkLen(req.size, chunk, st.next)
	cp.segs = cp.lsSegments(p, req, cp.segs[:0])
	cp.segs2 = subSegments(cp.segs, off, n, cp.segs2[:0])
	fb := fmtmsg.GetWireBuf(chunkIdxSize + n)
	frame := appendChunkFrame(*fb, st.next, cp.segs2...)
	injStart := p.Now()
	st.arrivals = append(st.arrivals, cp.rank.SendChunk(p, st.dst, req.ch.streamTag(), frame))
	*fb = frame
	fmtmsg.PutWireBuf(fb)
	app.spanChunk(req.xfer, trace.PhaseChunkFrame, cp.lbl, req.ch, n, injStart, p.Now(), st.next)
	inflight := 0
	for _, a := range st.arrivals {
		if a > p.Now() {
			inflight++
		}
	}
	app.noteStream(inflightSend, inflight)
	st.next++
	if st.next < st.nchunks {
		cp.streamAdvanced = true
		cp.nudge()
		return false
	}
	app.spanPhase(req.xfer, trace.PhaseChunkRelay, cp.lbl, req.ch, req.size, st.startAt, p.Now())
	cp.stats.RelayedBytes += int64(req.size)
	cp.obsComplete(req)
	cp.notify(p, req, speStatusOK)
	return true
}

// streamRead progresses a reader-side chunk stream: receive the header,
// then drain at most one chunk per call straight into the SPE's LS buffer,
// booking each chunk's EA→LS DMA on the SPE's MFC. Completion is signalled
// only when every chunk has arrived AND the last DMA has landed — a stream
// cut short by a fault never produces an OK, so a torn payload is never
// delivered (the stalled reader surfaces as a timeout/poisoned channel).
func (cp *copilot) streamRead(p *sim.Proc, req *speReq, src int) bool {
	app := cp.app
	par := app.par
	tag := req.ch.streamTag()
	rs := &req.rstream
	if rs.nchunks == 0 {
		st, ok := cp.rank.Iprobe(p, src, tag)
		if !ok {
			return false
		}
		if st.Count != streamHdrSize {
			p.Fatalf("%v", usageError("runtime", "co-pilot", "malformed stream header on %s (%d bytes)", req.ch, st.Count))
		}
		data, hst := cp.rank.Recv(p, src, tag)
		sig, size, chunk, nchunks := parseStreamHeader(data)
		cp.validateIncoming(p, req, sig, size)
		req.xfer = hst.Xfer
		*rs = streamRecv{src: src, chunk: chunk, nchunks: nchunks, startAt: p.Now()}
		app.noteStream(inflightRecv, nchunks)
		cp.streamAdvanced = true
		return false
	}
	if rs.got < rs.nchunks {
		if _, ok := cp.rank.Iprobe(p, src, tag); !ok {
			return false
		}
		data, _ := cp.rank.Recv(p, src, tag)
		idx, payload, ok := parseChunkFrame(data)
		if !ok || idx != rs.got {
			p.Fatalf("%v", usageError("runtime", "co-pilot", "stream chunk %d arrived out of order on %s (expected %d)", idx, req.ch, rs.got))
		}
		drainStart := p.Now()
		p.Advance(par.ChunkStackTime(len(payload)))
		cp.segs = cp.lsSegments(p, req, cp.segs[:0])
		cp.segs2 = subSegments(cp.segs, rs.got*rs.chunk, len(payload), cp.segs2[:0])
		cellbe.CopySegments(cp.segs2, [][]byte{payload})
		d := par.ChunkDMATime(len(payload))
		rs.dmaDone = app.dmaRes(req.spe).ReserveFor(d)
		app.spanChunk(req.xfer, trace.PhaseChunkFrame, cp.lbl, req.ch, len(payload), drainStart, p.Now(), rs.got)
		app.spanChunk(req.xfer, trace.PhaseChunkDMA, req.proc.lbl, req.ch, len(payload), rs.dmaDone-d, rs.dmaDone, rs.got)
		rs.got++
		app.noteStream(inflightRecv, rs.nchunks-rs.got)
		if rs.got < rs.nchunks {
			cp.streamAdvanced = true
			return false
		}
	}
	if now := p.Now(); now < rs.dmaDone {
		app.K.After(rs.dmaDone-now, cp.nudge)
		return false
	}
	app.spanPhase(req.xfer, trace.PhaseChunkRelay, cp.lbl, req.ch, req.size, rs.startAt, p.Now())
	cp.obsComplete(req)
	cp.notify(p, req, speStatusOK)
	return true
}

func (cp *copilot) validateIncoming(p *sim.Proc, req *speReq, sig uint32, size int) {
	if sig != req.sig {
		p.Fatalf("%v", usageError("runtime", "PI_Read", "format mismatch on %s: SPE reader %s used a different format than the writer",
			req.ch, req.proc))
	}
	if size != req.size {
		p.Fatalf("%v", usageError("runtime", "PI_Read", "size mismatch on %s: writer sent %d bytes, SPE reader %s expects %d",
			req.ch, size, req.proc, req.size))
	}
}

func (cp *copilot) validatePair(p *sim.Proc, wr, rd *speReq) {
	if wr.sig != rd.sig {
		p.Fatalf("%v", usageError("runtime", "PI_Read", "format mismatch on %s between %s and %s",
			wr.ch, wr.proc, rd.proc))
	}
	if wr.size != rd.size {
		p.Fatalf("%v", usageError("runtime", "PI_Read", "size mismatch on %s: %s wrote %d bytes, %s reads %d",
			wr.ch, wr.proc, wr.size, rd.proc, rd.size))
	}
}
