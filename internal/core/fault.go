package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"cellpilot/internal/fault"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sim"
)

// This file is the Pilot-level half of the fault story: the injector
// (internal/fault) decides what breaks; the code here decides what the
// application sees. The contract is graceful degradation — a dead SPE,
// Co-Pilot, or node poisons exactly the channels whose transfer path
// touches it, operations on poisoned channels fail with a structured
// ChannelFault carrying a Pilot-style file:line, the faulted process
// unwinds cleanly, unaffected processes run to completion, and App.Run
// returns a FaultSummary instead of panicking.
//
// Every channel operation runs one bounded path in every App: it waits
// until its deadline (a Try* timeout or Options.OpTimeout; none by
// default) and until its channel is poisoned. A poisoned channel fails
// each operation on it, and the Co-Pilot sheds and suppresses requests on
// it. An operation with no deadline on a channel that stays healthy parks
// at the instants of an unbounded one, so a clean run's timeline is
// unchanged. App.hardened() (an injector or OpTimeout is set) selects
// only whether timers bound the Co-Pilot's own mailbox waits and what it
// does with a garbled descriptor; App.mailboxHardened() selects the
// sequenced ACK/NACK descriptor protocol.

// ChannelFault is the structured error a channel operation fails with
// when its channel was poisoned by a fault, or when it exceeded its
// deadline. It is returned by TryRead/TryWrite and recorded (with the
// failing process unwound) for blocking Read/Write.
type ChannelFault struct {
	// Loc is the user call site of the failing operation ("file.go:42").
	Loc string
	// API names the operation (PI_Read, PI_Write, ...).
	API string
	// Channel describes the faulted channel; ChannelID is its id.
	Channel   string
	ChannelID int
	// Reason says what went wrong ("SPE worker#1 died: killed by fault
	// injection", "operation timed out", ...).
	Reason string
	// Timeout marks deadline expiry (Options.OpTimeout or a Try* bound)
	// rather than a poisoned channel.
	Timeout bool
	// InCycle reports whether, at timeout, the operation was part of a
	// circular wait the deadlock service could see; CycleDetail then
	// carries the cycle diagnostic. When false, CycleDetail explains what
	// the service knew (merely slow, faulted peer, detection off).
	InCycle     bool
	CycleDetail string
	// Tail is the flight recorder's view of the phase events that led up
	// to the fault (most recent last), attached automatically when the
	// fault is raised.
	Tail []string
}

// faultTailDepth is how many flight-recorder lines ride on a single
// ChannelFault; faultSummaryTailDepth is the (longer) tail attached to
// the run-level FaultSummary.
const (
	faultTailDepth        = 16
	faultSummaryTailDepth = 32
)

// Error implements error in the Pilot diagnostic style.
func (f *ChannelFault) Error() string {
	s := fmt.Sprintf("pilot: %s: %s: channel fault on %s: %s", f.Loc, f.API, f.Channel, f.Reason)
	if f.CycleDetail != "" {
		s += "\n  " + f.CycleDetail
	}
	if len(f.Tail) > 0 {
		s += fmt.Sprintf("\n  last %d phase event(s) before the fault:", len(f.Tail))
		for _, line := range f.Tail {
			s += "\n    " + line
		}
	}
	return s
}

// FaultSummary is what App.Run returns when the run completed in degraded
// mode: every surviving process ran to completion, but faults killed
// processes and/or failed channel operations along the way.
type FaultSummary struct {
	// Faults are the channel-operation failures, in occurrence order.
	Faults []*ChannelFault
	// Killed lists the processes (and Co-Pilots) terminated by injection.
	Killed []string
	// FlightTail is the flight recorder's tail at the end of the run: the
	// last phase events across all channels, for post-mortem context.
	FlightTail []string
}

// Error implements error.
func (s *FaultSummary) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pilot: run completed degraded: %d process(es) killed, %d channel operation fault(s)",
		len(s.Killed), len(s.Faults))
	for _, k := range s.Killed {
		fmt.Fprintf(&b, "\n  killed: %s", k)
	}
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "\n  fault: %v", f)
	}
	if len(s.FlightTail) > 0 {
		fmt.Fprintf(&b, "\n  flight recorder tail (%d event(s)):", len(s.FlightTail))
		for _, line := range s.FlightTail {
			fmt.Fprintf(&b, "\n    %s", line)
		}
	}
	return b.String()
}

// procFault unwinds exactly one process out of a failed blocking channel
// operation; the spawn wrappers recover it, record the fault, and let the
// process's normal end-of-life bookkeeping (userDone, lifetime) run.
type procFault struct {
	cf *ChannelFault
}

// hardened reports whether any fault machinery is armed. It arms timers
// on the Co-Pilot's descriptor reads and completion writes (readDesc,
// notify) and makes it drop a garbled descriptor instead of aborting.
func (a *App) hardened() bool {
	return a.opts.Faults != nil || a.opts.OpTimeout > 0
}

// mailboxHardened reports whether the SPE↔Co-Pilot mailbox protocol must
// carry sequence numbers and ACKs (the plan injects mailbox word faults).
func (a *App) mailboxHardened() bool {
	return a.opts.Faults != nil && a.opts.Faults.UsesMailbox()
}

// opDeadline resolves the absolute deadline for one operation: an
// explicit Try* timeout wins, else Options.OpTimeout, else none.
func (a *App) opDeadline(now sim.Time, soft sim.Time) sim.Time {
	if soft > 0 {
		return now + soft
	}
	if a.opts.OpTimeout > 0 {
		return now + a.opts.OpTimeout
	}
	return 0
}

// chanWait is a process blocked in an operation on a channel.
type chanWait struct {
	ch *Channel
	p  *sim.Proc
}

// watch registers p as blocked on ch so failChannel can wake it; unwatch
// withdraws the registration.
func (a *App) watch(ch *Channel, p *sim.Proc) {
	a.waiters = append(a.waiters, chanWait{ch, p})
}

func (a *App) unwatch(ch *Channel, p *sim.Proc) {
	if i := slices.Index(a.waiters, chanWait{ch, p}); i >= 0 {
		a.waiters = slices.Delete(a.waiters, i, i+1)
	}
}

// chanStop is the stop predicate blocking operations pass down: it fires
// as soon as the channel is poisoned.
func (a *App) chanStop(ch *Channel) func() error {
	return func() error {
		if ch.fault != nil {
			return ch.fault
		}
		return nil
	}
}

// failChannel poisons ch (sticky; the first reason wins) and wakes every
// process blocked on it, in the order they blocked, so their stop
// predicates can fire.
func (a *App) failChannel(ch *Channel, reason string) {
	if ch.fault != nil {
		return
	}
	ch.fault = &ChannelFault{
		Loc: "runtime", API: "channel",
		Channel: ch.String(), ChannelID: ch.id, Reason: reason,
	}
	a.faulted = true
	if inj := a.opts.Faults; inj != nil {
		inj.Counts.ChannelFaults++
		inj.Logf(a.K.Now(), "poison %s: %s", ch, reason)
	}
	for _, w := range a.waiters {
		if w.ch == ch {
			a.K.ReadyIfParked(w.p)
		}
	}
	// Wake the Co-Pilots so they shed queued requests on this channel
	// (and from dead processes) instead of sleeping on them.
	for _, key := range a.copilotOrder {
		a.copilots[key].nudge()
	}
}

// opFault converts a low-level abandonment error (poisoned channel,
// deadline expiry) into the operation's ChannelFault.
func (a *App) opFault(loc, api string, proc *Process, ch *Channel, err error) *ChannelFault {
	var base *ChannelFault
	if errors.As(err, &base) {
		cp := *base
		cp.Loc, cp.API = loc, api
		cp.Tail = a.flight.TailLines(faultTailDepth)
		return &cp
	}
	if errors.Is(err, sim.ErrTimeout) || errors.Is(err, mpi.ErrDeadline) {
		a.opTimeouts++
		if inj := a.opts.Faults; inj != nil {
			inj.Counts.OpTimeouts++
		}
		inCycle, detail := a.timeoutDetail(proc)
		return &ChannelFault{
			Loc: loc, API: api, Channel: ch.String(), ChannelID: ch.id,
			Reason: "operation timed out", Timeout: true,
			InCycle: inCycle, CycleDetail: detail,
			Tail: a.flight.TailLines(faultTailDepth),
		}
	}
	return &ChannelFault{
		Loc: loc, API: api, Channel: ch.String(), ChannelID: ch.id,
		Reason: err.Error(), Tail: a.flight.TailLines(faultTailDepth),
	}
}

// timeoutDetail asks the deadlock service what it knows about the timed
// out process: part of a detected circular wait, or merely slow/faulted.
func (a *App) timeoutDetail(proc *Process) (inCycle bool, detail string) {
	if a.svc == nil {
		return false, "deadlock detection is off; the peer is slow, dead, or the link is faulted"
	}
	if cyc := a.svc.det.CycleThrough(proc.id); cyc != nil {
		return true, "the blocked operation is part of a detected circular wait:\n  " +
			strings.ReplaceAll(cyc.Error(), "\n", "\n  ")
	}
	if loc, ok := a.svc.det.WaitLoc(proc.id); ok {
		where := ""
		if loc != "" {
			where = fmt.Sprintf(" (blocked at %s)", loc)
		}
		return false, "not part of any detected wait cycle" + where + "; the peer is slow, dead, or the link is faulted"
	}
	return false, "no wait-for edge recorded for this operation; the peer is slow, dead, or the link is faulted"
}

// failOp ends proc's operation on ch, which failed with err: a blocking
// caller unwinds (raiseFault), a Try* caller (soft) gets the ChannelFault
// back. blocked says the operation reported itself blocked to the
// deadlock service.
func (a *App) failOp(loc, api string, proc *Process, ch *Channel, err error, soft, blocked bool) error {
	cf := a.opFault(loc, api, proc, ch, err)
	if !soft {
		a.raiseFault(proc, ch, cf, blocked)
	}
	if blocked {
		a.reportUnblock(proc)
	}
	return cf
}

// raiseFault ends the calling process with cf: blocking Read/Write have
// no error return (Pilot's API), so a hard fault unwinds the process; the
// spawn wrapper's recover records it. A hard timeout also poisons the
// channel — the operation died mid-protocol, the channel state is gone.
func (a *App) raiseFault(proc *Process, ch *Channel, cf *ChannelFault, blocked bool) {
	if blocked {
		a.reportUnblock(proc)
	}
	if cf.Timeout && ch != nil {
		a.failChannel(ch, fmt.Sprintf("%s at %s timed out in %s", cf.API, cf.Loc, proc))
	}
	panic(procFault{cf: cf})
}

// recoverFault is installed (last, so it runs first) in every process
// spawn wrapper: it absorbs procFault panics, records the fault, and lets
// the remaining deferred bookkeeping run; anything else keeps unwinding.
func (a *App) recoverFault(proc *Process) {
	r := recover()
	if r == nil {
		return
	}
	pf, ok := r.(procFault)
	if !ok {
		panic(r)
	}
	a.faults = append(a.faults, pf.cf)
	a.opts.Faults.Logf(a.K.Now(), "process %s unwound: %v", proc, pf.cf)
}

// applyFault is the injector's OnEvent callback (scheduler context).
func (a *App) applyFault(e fault.Event) {
	if tl := a.obs.Timeline; tl != nil {
		target := e.Proc
		if e.Kind != fault.KillSPE {
			target = fmt.Sprintf("node%d", e.Node)
		}
		tl.NoteFault(a.K.Now(), fmt.Sprintf("%s(%s)", e.Kind, target))
	}
	switch e.Kind {
	case fault.KillSPE:
		for _, p := range a.procs {
			if p.IsSPE() && p.name == e.Proc {
				a.killProcess(p, "killed by fault injection")
			}
		}
	case fault.KillCoPilot:
		for _, key := range a.copilotOrder {
			if key.node == e.Node {
				a.killCopilot(a.copilots[key], "killed by fault injection")
			}
		}
	case fault.CrashNode:
		reason := fmt.Sprintf("node %d crashed", e.Node)
		for _, p := range a.procs {
			if p.nodeID == e.Node {
				a.killProcess(p, reason)
			}
		}
		for _, key := range a.copilotOrder {
			if key.node == e.Node {
				a.killCopilot(a.copilots[key], reason)
			}
		}
	}
}

// killProcess terminates one Pilot process and poisons every channel
// bound to it. The sim-level Kill unwinds the proc at its next park or
// advance; its deferred bookkeeping (userDone, lifetime) still runs.
func (a *App) killProcess(proc *Process, reason string) {
	if proc.dead {
		return
	}
	proc.dead = true
	a.faulted = true
	a.killed = append(a.killed, fmt.Sprintf("%s: %s", proc, reason))
	if inj := a.opts.Faults; inj != nil {
		inj.Counts.ProcsKilled++
		inj.Logf(a.K.Now(), "kill %s: %s", proc, reason)
	}
	a.reportUnblock(proc)
	for _, ch := range a.chans {
		if ch.From == proc || ch.To == proc {
			a.failChannel(ch, fmt.Sprintf("%s died: %s", proc, reason))
		}
	}
	if proc.simProc != nil {
		proc.simProc.Kill()
	}
}

// killCopilot terminates a Co-Pilot service process. Every channel whose
// transfer path runs through it is poisoned; the SPEs it served survive
// unless they touch those channels.
func (a *App) killCopilot(cp *copilot, reason string) {
	if cp == nil || cp.dead {
		return
	}
	cp.dead = true
	a.killed = append(a.killed, fmt.Sprintf("%s: %s", cp.rank.Label(), reason))
	if inj := a.opts.Faults; inj != nil {
		inj.Counts.ProcsKilled++
		inj.Logf(a.K.Now(), "kill %s: %s", cp.rank.Label(), reason)
	}
	for _, ch := range a.chans {
		if (ch.From.IsSPE() && a.copilotFor(ch.From) == cp) ||
			(ch.To.IsSPE() && a.copilotFor(ch.To) == cp) {
			a.failChannel(ch, fmt.Sprintf("co-pilot %s died: %s", cp.rank.Label(), reason))
		}
	}
	if cp.proc != nil {
		cp.proc.Kill()
	}
}

// ChannelFaults returns the channel-operation faults recorded so far, in
// occurrence order.
func (a *App) ChannelFaults() []*ChannelFault {
	return append([]*ChannelFault(nil), a.faults...)
}

// KilledProcs lists the processes terminated by fault injection.
func (a *App) KilledProcs() []string { return append([]string(nil), a.killed...) }

// FaultLog returns the injector's timestamped fault log (nil without an
// injector) — the determinism fingerprint of a chaos run.
func (a *App) FaultLog() []string {
	if a.opts.Faults == nil {
		return nil
	}
	return a.opts.Faults.Log()
}

// faultSummary builds the Run return value for a degraded-but-completed
// run; nil when nothing went wrong.
func (a *App) faultSummary() error {
	if len(a.faults) == 0 && len(a.killed) == 0 {
		return nil
	}
	return &FaultSummary{
		Faults:     append([]*ChannelFault(nil), a.faults...),
		Killed:     append([]string(nil), a.killed...),
		FlightTail: a.flight.TailLines(faultSummaryTailDepth),
	}
}

// --- mailbox protocol hardening (sequence numbers + ACK/NACK) ---

// Completion statuses beyond speStatusOK: a fault status for a request
// the Co-Pilot shed, and the sequenced protocol's ACK/NACK words, which
// carry the descriptor's 4-bit sequence number in the low bits so stubs
// can discard strays from reposted descriptors.
const (
	speStatusFault    uint32 = 0xF0F0F00F
	speStatusAckBase  uint32 = 0xA5A50000
	speStatusNackBase uint32 = 0x5A5A0000
	speStatusKindMask uint32 = 0xFFFF0000
	speSeqMask        uint32 = 0xF
)

func speAck(seq uint32) uint32  { return speStatusAckBase | (seq & speSeqMask) }
func speNack(seq uint32) uint32 { return speStatusNackBase | (seq & speSeqMask) }

// isAckNack reports whether an inbound-mailbox word is a descriptor
// ACK/NACK rather than a completion status.
func isAckNack(v uint32) bool {
	k := v & speStatusKindMask
	return k == speStatusAckBase || k == speStatusNackBase
}

// Hardened-mode word0 layout: op(4) | seq(4) | chan(24). The plain-mode
// layout (op(4) | chan(28), reqWord0) is kept bit-identical for clean
// runs; both sides switch on mailboxHardened().
func reqWord0Seq(op speOpcode, seq uint32, chanID int) uint32 {
	if chanID < 0 || chanID >= 1<<24 {
		panic(fmt.Sprintf("core: channel id %d does not fit a sequenced mailbox word", chanID))
	}
	return uint32(op)<<28 | (seq&speSeqMask)<<24 | uint32(chanID)
}

func parseWord0Seq(w uint32) (op speOpcode, seq uint32, chanID int) {
	return speOpcode(w >> 28), (w >> 24) & speSeqMask, int(w & (1<<24 - 1))
}

// descTimeout bounds the Co-Pilot's wait for each of descriptor words
// 1-3 once word0 arrived; generous against mailbox stalls, small against
// run time.
func (a *App) descTimeout() sim.Time {
	if d := a.par.CoPilotPoll; d > 0 {
		return 16 * d
	}
	return 200 * sim.Microsecond
}

// ackTimeout bounds the stub's wait for the Co-Pilot's descriptor ACK
// before reposting. It deliberately exceeds descTimeout (per word) so a
// NACK normally arrives first; an overdue ACK leads to a repost that the
// Co-Pilot's sequence check discards as a duplicate.
func (a *App) ackTimeout() sim.Time {
	return 4*a.descTimeout() + 64*a.par.MailboxWrite
}

// maxReposts bounds descriptor repost attempts before the stub declares
// the channel dead.
const maxReposts = 8
