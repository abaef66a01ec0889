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

// request posts a four-word request descriptor through the outbound
// mailbox and nudges the Co-Pilot. The 1-entry outbound mailbox makes the
// later words stall until the Co-Pilot drains them — a real contributor
// to the latencies in paper Table II.
func (c *SPECtx) request(op speOpcode, ch *Channel, lsAddr uint32, size int, sig uint32) {
	c.sctx.WriteOutMbox(c.P, reqWord0(op, ch.id))
	c.app.copilotFor(c.Self).nudge()
	c.sctx.WriteOutMbox(c.P, lsAddr)
	c.sctx.WriteOutMbox(c.P, uint32(size))
	c.sctx.WriteOutMbox(c.P, sig)
}

// postDesc posts the request descriptor in whichever mode the run
// requires: plain (clean runs — identical to request()), deadline-bounded
// (hardened, no mailbox faults), or the full sequence-numbered ACK/repost
// protocol (mailbox faults in the plan). A non-nil return is the
// operation's fault, already shaped by opFault.
func (c *SPECtx) postDesc(loc, api string, op speOpcode, ch *Channel, lsAddr uint32, size int, sig uint32, deadline sim.Time) error {
	if !c.app.hardened() {
		c.request(op, ch, lsAddr, size, sig)
		return nil
	}
	stop := c.app.chanStop(ch)
	if !c.app.mailboxHardened() {
		// Same four words at the same instants as request(), but a write
		// against a dead Co-Pilot's full mailbox cannot park forever.
		for i, w := range [4]uint32{reqWord0(op, ch.id), lsAddr, uint32(size), sig} {
			if err := c.sctx.WriteOutMboxCtl(c.P, w, deadline, stop); err != nil {
				return c.app.opFault(loc, api, c.Self, ch, err)
			}
			if i == 0 {
				c.app.copilotFor(c.Self).nudge()
			}
		}
		return nil
	}
	// Mailbox-hardened: word0 carries a 4-bit sequence number; the
	// Co-Pilot ACKs every decoded descriptor and NACKs garbled ones. The
	// stub reposts on NACK or ACK timeout; the Co-Pilot's per-SPE sequence
	// check discards duplicates (re-ACKing them), so a repost racing a
	// slow ACK is harmless.
	seq := c.Self.mboxSeq & speSeqMask
	c.Self.mboxSeq++
	inj := c.app.opts.Faults
	// Time spent from the first repost onward is fault-protocol backoff,
	// not nominal posting cost; the profiler attributes it separately.
	repostFrom := sim.Time(-1)
	defer func() {
		if repostFrom >= 0 {
			c.app.noteBackoff(c.Self.lbl, c.P.Now()-repostFrom)
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
		for i, w := range [4]uint32{reqWord0Seq(op, seq, ch.id), lsAddr, uint32(size), sig} {
			if err := c.sctx.WriteOutMboxCtl(c.P, w, deadline, stop); err != nil {
				return c.app.opFault(loc, api, c.Self, ch, err)
			}
			if i == 0 {
				c.app.copilotFor(c.Self).nudge()
			}
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

// waitStatus reads the Co-Pilot's completion status for the current
// request. In mailbox-hardened mode, stale ACK/NACK words of reposted
// descriptors are skipped.
func (c *SPECtx) waitStatus(loc, api string, ch *Channel, deadline sim.Time) (uint32, error) {
	if !c.app.hardened() {
		return c.sctx.ReadInMbox(c.P), nil
	}
	stop := c.app.chanStop(ch)
	mh := c.app.mailboxHardened()
	for {
		v, err := c.sctx.ReadInMboxCtl(c.P, deadline, stop)
		if err != nil {
			return 0, c.app.opFault(loc, api, c.Self, ch, err)
		}
		if mh && isAckNack(v) {
			continue // stale ACK/NACK of a reposted descriptor
		}
		return v, nil
	}
}

// speSoftFail finishes a Try* operation that faulted: a timeout poisons
// the channel (the mailbox protocol is mid-flight and its late completion
// words must be suppressed), the blocked report is cleared, and the
// fault is returned to the caller.
func (c *SPECtx) speSoftFail(ch *Channel, cf *ChannelFault, blocked bool) error {
	if blocked {
		c.app.reportUnblock(c.Self)
	}
	if cf.Timeout {
		c.app.failChannel(ch, fmt.Sprintf("%s at %s timed out in %s mid-protocol", cf.API, cf.Loc, c.Self))
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
	c.app.obs.host.Enter(hostprof.SubsysFmtmsg)
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.app.obs.host.Exit()
		c.fail(loc, api, "%v", err)
	}
	bp := fmtmsg.GetWireBuf(0)
	defer fmtmsg.PutWireBuf(bp)
	wire, err := spec.PackInto(*bp, args...)
	c.app.obs.host.Exit()
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	*bp = wire
	useCtl := timeout > 0 || c.app.hardened()
	if useCtl && ch.fault != nil {
		cf := c.app.opFault(loc, api, c.Self, ch, ch.fault)
		if soft {
			return cf
		}
		c.app.raiseFault(c.Self, ch, cf, false)
	}
	packStart := c.P.Now()
	deadline := sim.Time(0)
	if useCtl {
		deadline = c.app.opDeadline(packStart, timeout)
		defer c.app.watchChannel(ch, c.P)()
	}
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
	if err := c.postDesc(loc, api, opWrite, ch, lsAddr, len(wire), spec.Signature(), deadline); err != nil {
		cf := err.(*ChannelFault)
		if soft {
			rerr := c.speSoftFail(ch, cf, blocking)
			if lerr := ls.Release(); lerr != nil {
				c.fail(loc, api, "%v", lerr)
			}
			return rerr
		}
		c.app.raiseFault(c.Self, ch, cf, blocking)
	}
	postEnd := c.P.Now()
	status, serr := c.waitStatus(loc, api, ch, deadline)
	if serr != nil {
		cf := serr.(*ChannelFault)
		if soft {
			rerr := c.speSoftFail(ch, cf, blocking)
			if lerr := ls.Release(); lerr != nil {
				c.fail(loc, api, "%v", lerr)
			}
			return rerr
		}
		c.app.raiseFault(c.Self, ch, cf, blocking)
	}
	if status != speStatusOK {
		if useCtl && status == speStatusFault {
			src := error(ch.fault)
			if ch.fault == nil {
				src = fmt.Errorf("the co-pilot faulted the transfer (peer dead or channel poisoned)")
			}
			cf := c.app.opFault(loc, api, c.Self, ch, src)
			if soft {
				rerr := c.speSoftFail(ch, cf, blocking)
				if lerr := ls.Release(); lerr != nil {
					c.fail(loc, api, "%v", lerr)
				}
				return rerr
			}
			c.app.raiseFault(c.Self, ch, cf, blocking)
		}
		c.fail(loc, api, "transfer failed on %s (status %d)", ch, status)
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
	useCtl := timeout > 0 || c.app.hardened()
	if useCtl && ch.fault != nil {
		cf := c.app.opFault(loc, api, c.Self, ch, ch.fault)
		if soft {
			return cf
		}
		c.app.raiseFault(c.Self, ch, cf, false)
	}
	deadline := sim.Time(0)
	if useCtl {
		deadline = c.app.opDeadline(c.P.Now(), timeout)
		defer c.app.watchChannel(ch, c.P)()
	}
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
	if err := c.postDesc(loc, api, opRead, ch, lsAddr, expected, spec.Signature(), deadline); err != nil {
		cf := err.(*ChannelFault)
		if soft {
			rerr := c.speSoftFail(ch, cf, blocking)
			if lerr := ls.Release(); lerr != nil {
				c.fail(loc, api, "%v", lerr)
			}
			return rerr
		}
		c.app.raiseFault(c.Self, ch, cf, blocking)
	}
	postEnd := c.P.Now()
	status, serr := c.waitStatus(loc, api, ch, deadline)
	if serr != nil {
		cf := serr.(*ChannelFault)
		if soft {
			rerr := c.speSoftFail(ch, cf, blocking)
			if lerr := ls.Release(); lerr != nil {
				c.fail(loc, api, "%v", lerr)
			}
			return rerr
		}
		c.app.raiseFault(c.Self, ch, cf, blocking)
	}
	if status != speStatusOK {
		if useCtl && status == speStatusFault {
			src := error(ch.fault)
			if ch.fault == nil {
				src = fmt.Errorf("the co-pilot faulted the transfer (peer dead or channel poisoned)")
			}
			cf := c.app.opFault(loc, api, c.Self, ch, src)
			if soft {
				rerr := c.speSoftFail(ch, cf, blocking)
				if lerr := ls.Release(); lerr != nil {
					c.fail(loc, api, "%v", lerr)
				}
				return rerr
			}
			c.app.raiseFault(c.Self, ch, cf, blocking)
		}
		c.fail(loc, api, "transfer failed on %s (status %d)", ch, status)
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
	c.app.obs.host.Enter(hostprof.SubsysFmtmsg)
	err = spec.Unpack(payload, args...)
	c.app.obs.host.Exit()
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
