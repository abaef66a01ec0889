package core

import (
	"errors"
	"fmt"

	"cellpilot/internal/deadlock"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
	"cellpilot/internal/trace"
)

// SPECtx is the execution handle of an SPE process: the CellPilot SPE
// stub. Its Read and Write pack or unpack the message in a local-store
// buffer, post a four-word request descriptor through the outbound
// mailbox, and wait for the Co-Pilot's completion status in the inbound
// mailbox — exactly the protocol of paper Section IV.B, with no DMA
// programming in sight.
type SPECtx struct {
	app  *App
	P    *sim.Proc
	Self *Process
	sctx *sdk.Context
	arg  int
	env  any
	// segs lists a received payload's local-store pages; gather joins a
	// payload that spans pages, for Unpack. Both are reused across reads.
	segs   [][]byte
	gather []byte
}

// Arg reports the int argument passed to RunSPE — the paper's mechanism
// for giving each instance of a data-parallel SPE function its own index.
func (c *SPECtx) Arg() int { return c.arg }

// Env reports the environment pointer passed to RunSPE.
func (c *SPECtx) Env() any { return c.env }

// Index reports the index given at CreateSPE.
func (c *SPECtx) Index() int { return c.Self.index }

// LSFree reports the local-store bytes still available to message buffers
// — what remains of the 256 KB after the CellPilot runtime, the program
// image and the stack reserve.
func (c *SPECtx) LSFree() int { return c.sctx.SPE.LS.Free() }

func (c *SPECtx) fail(loc, api, format string, args ...any) {
	c.P.Fatalf("%v", usageError(loc, api, format, args...))
}

// postDesc posts the request descriptor for the stub's next request,
// bounded by deadline and by ch's poisoning: four words through the
// outbound mailbox, or, when the plan injects mailbox faults, the
// sequence-numbered ACK/repost protocol around them. A non-nil return is
// the operation's fault, already shaped by opFault.
func (c *SPECtx) postDesc(loc, api string, op speOpcode, ch *Channel, lsAddr uint32, size int, sig uint32, deadline sim.Time) *ChannelFault {
	seq := c.Self.posts & speSeqMask
	c.Self.posts++
	c.Self.awaiting = c.Self.posts
	stop := c.app.chanStop(ch)
	if !c.app.mailboxHardened() {
		if err := c.writeDesc([4]uint32{reqWord0(op, ch.id), lsAddr, uint32(size), sig}, deadline, stop); err != nil {
			return c.app.opFault(loc, api, c.Self, ch, err)
		}
		return nil
	}
	// Mailbox-hardened: word0 carries a 4-bit sequence number; the
	// Co-Pilot ACKs every decoded descriptor and NACKs garbled ones. The
	// stub reposts on NACK or ACK timeout; the Co-Pilot's per-SPE sequence
	// check discards duplicates (re-ACKing them), so a repost racing a
	// slow ACK is harmless.
	inj := c.app.opts.Faults
	// Time spent from the first repost onward is fault-protocol backoff,
	// not nominal posting cost; the profiler attributes it separately.
	repostFrom := sim.Time(-1)
	defer func() {
		if repostFrom >= 0 {
			c.Self.backoff += c.P.Now() - repostFrom
		}
	}()
	for attempt := 0; ; attempt++ {
		if attempt == 1 {
			repostFrom = c.P.Now()
		}
		if attempt > 0 {
			inj.Counts.MailboxReposts++
			inj.Logf(c.P.Now(), "%s reposts descriptor seq=%d on %s (attempt %d)", c.Self, seq, ch, attempt+1)
		}
		if attempt >= maxReposts {
			c.app.failChannel(ch, fmt.Sprintf("%s could not hand a request descriptor to its co-pilot after %d attempts", c.Self, attempt))
			return c.app.opFault(loc, api, c.Self, ch, ch.fault)
		}
		if err := c.writeDesc([4]uint32{reqWord0Seq(op, seq, ch.id), lsAddr, uint32(size), sig}, deadline, stop); err != nil {
			return c.app.opFault(loc, api, c.Self, ch, err)
		}
		ackBy := c.P.Now() + c.app.ackTimeout()
		if deadline > 0 && deadline < ackBy {
			ackBy = deadline
		}
		acked, err := c.awaitAck(ch, seq, ackBy, stop)
		if err != nil {
			if errors.Is(err, sim.ErrTimeout) && (deadline == 0 || c.P.Now() < deadline) {
				continue // ACK overdue, not the operation deadline: repost
			}
			return c.app.opFault(loc, api, c.Self, ch, err)
		}
		if acked {
			return nil
		}
		// NACK: the Co-Pilot saw a garbled/incomplete descriptor. Repost.
	}
}

// writeDesc writes the four descriptor words through the outbound mailbox
// and nudges the Co-Pilot after the first. The 1-entry mailbox makes each
// later word stall until the Co-Pilot drains the one before — a real
// contributor to the latencies in paper Table II.
func (c *SPECtx) writeDesc(words [4]uint32, deadline sim.Time, stop func() error) error {
	for i, w := range words {
		if err := c.sctx.WriteOutMboxCtl(c.P, w, deadline, stop); err != nil {
			if i > 0 && !c.app.mailboxHardened() {
				c.cutDesc(i)
			}
			return err
		}
		if i == 0 {
			c.app.copilotFor(c.Self).nudge()
		}
	}
	return nil
}

// cutDesc records that the stub gave its descriptor up after n words, so
// that the Co-Pilot, once it has read them, drops the descriptor instead
// of waiting for the rest or reading the stub's next descriptor as its
// tail, and wakes the Co-Pilot if it already waits for word n. A second
// descriptor can be cut before the Co-Pilot has read the first's words; a
// third cannot, as its first word waits for the Co-Pilot to drain the
// second's. Not with mailbox faults, which can lose a word unseen and so
// make the count no guide: there the sequenced protocol's NACK and repost
// recover instead.
func (c *SPECtx) cutDesc(n int) {
	if c.Self.cut == 0 {
		c.Self.cut = uint8(n)
	} else {
		c.Self.cut |= uint8(n) << 2
	}
	if cp := c.app.copilotFor(c.Self); cp.descWait && cp.descOf == c.Self {
		c.app.K.ReadyIfParked(cp.proc)
	}
}

// awaitAck waits for the ACK/NACK of descriptor seq. Stray words
// (suppressed completions, ACKs of earlier sequences) are discarded.
func (c *SPECtx) awaitAck(ch *Channel, seq uint32, ackBy sim.Time, stop func() error) (acked bool, err error) {
	for {
		v, rerr := c.sctx.ReadInMboxCtl(c.P, ackBy, stop)
		if rerr != nil {
			return false, rerr
		}
		if !isAckNack(v) || v&speSeqMask != seq {
			continue
		}
		return v&speStatusKindMask == speStatusAckBase, nil
	}
}

// waitStatus waits for the Co-Pilot's completion status of the current
// request, bounded by deadline and by ch's poisoning. It returns the
// operation's fault when the wait is abandoned or the Co-Pilot faulted
// the transfer, and aborts on any other status but OK. In
// mailbox-hardened mode, stale ACK/NACK words of reposted descriptors are
// skipped.
func (c *SPECtx) waitStatus(loc, api string, ch *Channel, deadline sim.Time) *ChannelFault {
	stop := c.app.chanStop(ch)
	mh := c.app.mailboxHardened()
	for {
		v, err := c.sctx.ReadInMboxCtl(c.P, deadline, stop)
		switch {
		case err != nil:
			return c.app.opFault(loc, api, c.Self, ch, err)
		case mh && isAckNack(v):
			continue // stale ACK/NACK of a reposted descriptor
		case v == speStatusFault:
			err := error(ch.fault)
			if ch.fault == nil {
				err = errors.New("the co-pilot faulted the transfer (peer dead or channel poisoned)")
			}
			return c.app.opFault(loc, api, c.Self, ch, err)
		case v != speStatusOK:
			c.fail(loc, api, "transfer failed on %s (status %d)", ch, v)
		}
		return nil
	}
}

// abandon ends an operation that failed with cf once its request was
// being posted. The stub stops awaiting the request's completion, and a
// timeout poisons the channel: the mailbox protocol is mid-flight, and
// its late words must be suppressed. Then a blocking caller unwinds; a
// Try* caller gets cf back with the message buffer released. blocked
// says the operation reported itself blocked to the deadlock service.
func (c *SPECtx) abandon(loc, api string, ch *Channel, cf *ChannelFault, soft, blocked bool) error {
	c.Self.awaiting = 0
	if !soft {
		c.app.raiseFault(c.Self, ch, cf, blocked)
	}
	if blocked {
		c.app.reportUnblock(c.Self)
	}
	if cf.Timeout {
		c.app.failChannel(ch, fmt.Sprintf("%s at %s timed out in %s mid-protocol", cf.API, cf.Loc, c.Self))
	}
	if err := c.sctx.SPE.LS.Release(); err != nil {
		c.fail(loc, api, "%v", err)
	}
	return cf
}

// Write sends args on ch (PI_Write from an SPE process).
func (c *SPECtx) Write(ch *Channel, format string, args ...any) {
	loc := callerLoc(1)
	c.writeFrom(loc, "PI_Write", ch, 0, false, format, args...)
}

// TryWrite is Write bounded by a relative timeout (0 falls back to
// Options.OpTimeout), returning a *ChannelFault instead of unwinding the
// process. Because a timed-out mailbox protocol leaves the channel state
// indeterminate, an SPE-side TryWrite timeout poisons the channel.
func (c *SPECtx) TryWrite(ch *Channel, timeout sim.Time, format string, args ...any) error {
	loc := callerLoc(1)
	return c.writeFrom(loc, "PI_TryWrite", ch, timeout, true, format, args...)
}

func (c *SPECtx) writeFrom(loc, api string, ch *Channel, timeout sim.Time, soft bool, format string, args ...any) error {
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
	packStart := c.P.Now()
	deadline := c.app.opDeadline(packStart, timeout)
	c.app.watch(ch, c.P)
	defer c.app.unwatch(ch, c.P)
	c.P.Advance(c.app.par.SPEStubOverhead + c.app.par.PackTime(len(wire)))
	xfer := c.app.newXfer()
	c.app.spanPhase(xfer, trace.PhasePack, c.Self.lbl, ch, len(wire), packStart, c.P.Now())
	ls := c.sctx.SPE.LS
	lsAddr, err := ls.Alloc("PI_Write buffer", len(wire), 16)
	if err != nil {
		// The 256 KB discipline the paper stresses: the programmer still
		// has to cope with limited SPE memory.
		c.fail(loc, api, "%v", err)
	}
	if err := ls.CopyIn(lsAddr, wire); err != nil {
		c.fail(loc, api, "%v", err)
	}
	// With the SPE-deadlock extension, writes that genuinely wait for the
	// peer (type-4 rendezvous, rendezvous-sized payloads) report to the
	// service; eager relays complete regardless of the reader and must not
	// create false cycles.
	blocking := c.app.opts.SPEDeadlock &&
		(ch.typ == Type4 || hdrSize+len(wire) > c.app.par.EagerThreshold)
	if blocking {
		c.app.reportBlock(c.Self, ch.To, ch, deadlock.OpWrite, loc)
	}
	postStart := c.P.Now()
	c.app.spePosted(c.Self, xfer, postStart)
	if cf := c.postDesc(loc, api, opWrite, ch, lsAddr, len(wire), spec.Signature(), deadline); cf != nil {
		return c.abandon(loc, api, ch, cf, soft, blocking)
	}
	postEnd := c.P.Now()
	if cf := c.waitStatus(loc, api, ch, deadline); cf != nil {
		return c.abandon(loc, api, ch, cf, soft, blocking)
	}
	if blocking {
		c.app.reportUnblock(c.Self)
	} else {
		c.app.reportSent(ch) // eager relay: in flight regardless of reader
	}
	self := c.Self.lbl
	c.app.spanPhase(xfer, trace.PhaseMailboxReq, self, ch, len(wire), postStart, postEnd)
	c.app.spanPhase(xfer, trace.PhaseMailboxWait, self, ch, len(wire), postEnd, c.P.Now())
	c.Self.blocked[blockMailbox] += c.P.Now() - postStart
	c.app.record(c.P, trace.KindWrite, c.Self, ch, len(wire), xfer, c.P.Now()-packStart)
	if err := ls.Release(); err != nil {
		c.fail(loc, api, "%v", err)
	}
	return nil
}

// Read receives a message from ch into args (PI_Read from an SPE
// process). The Co-Pilot lands the payload directly in this SPE's local
// store through the effective-address mapping; the stub then unpacks it.
func (c *SPECtx) Read(ch *Channel, format string, args ...any) {
	loc := callerLoc(1)
	c.readFrom(loc, "PI_Read", ch, 0, false, format, args...)
}

// TryRead is Read bounded by a relative timeout (0 falls back to
// Options.OpTimeout), returning a *ChannelFault instead of unwinding the
// process. Like TryWrite, an SPE-side timeout poisons the channel.
func (c *SPECtx) TryRead(ch *Channel, timeout sim.Time, format string, args ...any) error {
	loc := callerLoc(1)
	return c.readFrom(loc, "PI_TryRead", ch, timeout, true, format, args...)
}

func (c *SPECtx) readFrom(loc, api string, ch *Channel, timeout sim.Time, soft bool, format string, args ...any) error {
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
	deadline := c.app.opDeadline(c.P.Now(), timeout)
	c.app.watch(ch, c.P)
	defer c.app.unwatch(ch, c.P)
	ls := c.sctx.SPE.LS
	lsAddr, err := ls.Alloc("PI_Read buffer", expected, 16)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	blocking := c.app.opts.SPEDeadlock
	if blocking {
		c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
	}
	postStart := c.P.Now()
	c.app.spePosted(c.Self, 0, postStart) // reader: id arrives with the payload
	if cf := c.postDesc(loc, api, opRead, ch, lsAddr, expected, spec.Signature(), deadline); cf != nil {
		return c.abandon(loc, api, ch, cf, soft, blocking)
	}
	postEnd := c.P.Now()
	if cf := c.waitStatus(loc, api, ch, deadline); cf != nil {
		return c.abandon(loc, api, ch, cf, soft, blocking)
	}
	if blocking {
		c.app.reportUnblock(c.Self)
	}
	waitEnd := c.P.Now()
	xfer := c.app.speTakeDone(c.Self)
	c.segs, err = ls.Segments(lsAddr, expected, c.segs[:0])
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	// A payload within one page unpacks in place; one that spans pages
	// is gathered first.
	var payload []byte
	if len(c.segs) == 1 {
		payload = c.segs[0]
	} else {
		c.gather = c.gather[:0]
		for _, seg := range c.segs {
			c.gather = append(c.gather, seg...)
		}
		payload = c.gather
	}
	c.P.Advance(c.app.par.SPEStubOverhead + c.app.par.PackTime(expected))
	c.app.obs.HostProf.Enter(hostprof.SubsysFmtmsg)
	err = spec.Unpack(payload, args...)
	c.app.obs.HostProf.Exit()
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	self := c.Self.lbl
	c.app.spanPhase(xfer, trace.PhaseMailboxReq, self, ch, expected, postStart, postEnd)
	c.app.spanPhase(xfer, trace.PhaseMailboxWait, self, ch, expected, postEnd, waitEnd)
	c.app.spanPhase(xfer, trace.PhasePack, self, ch, expected, waitEnd, c.P.Now())
	c.Self.blocked[blockMailbox] += waitEnd - postStart
	c.app.record(c.P, trace.KindRead, c.Self, ch, expected, xfer, c.P.Now()-postStart)
	if err := ls.Release(); err != nil {
		c.fail(loc, api, "%v", err)
	}
	return nil
}

// Log emits a trace line tagged with the SPE process and virtual time.
func (c *SPECtx) Log(format string, args ...any) {
	c.app.logf(c.P, c.Self, format, args...)
}
