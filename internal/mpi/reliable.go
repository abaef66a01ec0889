package mpi

import (
	"cellpilot/internal/sim"
)

// Stop-and-wait reliability for eager remote sends over lossy links.
//
// The fault injector can drop, corrupt, or delay frames on configured
// directed links. Plain eager delivery would silently lose those messages,
// so when a send crosses a link with a fault policy the world routes it
// through a per-(source rank, destination rank) stop-and-wait protocol:
// each frame carries a sequence number, the receiver acks in order, and
// the sender retransmits on an exponentially backed-off timeout until the
// ack arrives or the attempt budget is exhausted. Acks are 4-byte frames
// charged analytically (serialization + propagation, no NIC booking) and
// are themselves subject to the reverse link's fault policy.
//
// Scope: only *eager remote* sends traverse the injector's lossy links as
// discrete frames. The rendezvous path's RTS/CTS/data phases are modelled
// analytically and documented as reliable (see docs/ROBUSTNESS.md), and
// intra-node traffic never touches the fabric.
//
// When the sender exhausts relMaxAttempts the directed pair is severed:
// the queue is dropped, subsequent sends on the pair are counted and
// discarded, and the receiver's sequence expectations can never wedge on
// a gap.

const (
	// relAckBytes is the wire size of an ack frame.
	relAckBytes = 4
	// relMaxAttempts bounds transmissions of one frame (1 original +
	// retransmits) before the pair is declared dead.
	relMaxAttempts = 12
	// relBackoffCap caps the exponential backoff multiplier at 2^relBackoffCap.
	relBackoffCap = 4
)

// relKey identifies a directed rank pair.
type relKey struct{ src, dst int }

// relFrame is one sequenced eager message awaiting acknowledgement. It
// carries its own size because its envelope belongs to the receiver from
// the frame's first delivery on: the receive recycles it, so a
// retransmission must not read it.
type relFrame struct {
	seq  uint32
	size int
	env  *envelope
}

// relHop is one frame copy or ack crossing the link, due to arrive when
// its event fires. Hops come from the world's free list and return to it
// as they fire; fire is built once per record.
type relHop struct {
	st   *relState
	seq  uint32
	env  *envelope // the frame's envelope; nil for an ack
	fire func()
}

// relState is the shared protocol state of one directed rank pair: the
// sender-side queue and timer live at the source, the receiver-side
// expectation at the destination (one struct is fine — the sim is
// single-threaded).
type relState struct {
	src, dst *Rank

	// Sender side. sendq[head] is in flight; the frames after it wait for
	// its ack. The storage is reused as frames are acked.
	sendq    []relFrame
	head     int
	nextSeq  uint32
	timer    sim.Timer
	timeout  func() // the retransmit timer's callback, built once
	attempts int    // transmissions of the current head so far
	dead     bool   // gave up: pair severed, sends dropped

	// Receiver side.
	expect uint32
}

func (w *World) relStateFor(r, d *Rank) *relState {
	if w.rel == nil {
		w.rel = make(map[relKey]*relState)
	}
	k := relKey{r.id, d.id}
	st := w.rel[k]
	if st == nil {
		st = &relState{src: r, dst: d}
		st.timeout = func() { w.relTimeout(st) }
		w.rel[k] = st
	}
	return st
}

// pending reports whether a frame is in flight.
func (st *relState) pending() bool { return st.head < len(st.sendq) }

// pop drops the acked head frame. The queue's storage resets when it
// empties and slides down once acked frames are the larger part of it,
// so a pair that never drains does not grow it without bound.
func (st *relState) pop() {
	st.sendq[st.head] = relFrame{}
	st.head++
	switch {
	case st.head == len(st.sendq):
		st.sendq, st.head = st.sendq[:0], 0
	case st.head > len(st.sendq)/2:
		n := copy(st.sendq, st.sendq[st.head:])
		clear(st.sendq[n:])
		st.sendq, st.head = st.sendq[:n], 0
	}
}

// relNeeded reports whether a send from rank r to rank d must go through
// the reliability layer: a fault injector is armed with link policies and
// either direction of the node pair is covered (a lossy reverse link loses
// acks, which still requires sequencing and retransmission).
func (w *World) relNeeded(r, d *Rank) bool {
	if w.Faults == nil || !w.Faults.UsesLinks() || r.node.ID == d.node.ID {
		return false
	}
	return w.Faults.LinkFaulty(r.node.ID, d.node.ID) || w.Faults.LinkFaulty(d.node.ID, r.node.ID)
}

// relSend queues an eager envelope on the reliable path. The sending proc
// is charged NIC occupancy only when its frame transmits immediately
// (head of queue); queued frames transmit from scheduler context when
// their predecessor is acked.
func (w *World) relSend(p *sim.Proc, r, d *Rank, env *envelope) {
	st := w.relStateFor(r, d)
	if st.dead {
		w.Faults.Counts.GiveUpDrops++
		w.Faults.Logf(w.K.Now(), "mpi: rank%d->rank%d dead (gave up), dropping %d-byte send tag %d",
			r.id, d.id, env.size, env.tag)
		w.freeEnvelope(env)
		return
	}
	st.sendq = append(st.sendq, relFrame{seq: st.nextSeq, size: env.size, env: env})
	st.nextSeq++
	if len(st.sendq)-st.head > 1 {
		return // transmits when the head is acked
	}
	arrival, err := w.Clu.Net.Send(p, r.node.ID, d.node.ID, env.size)
	if err != nil {
		p.Fatalf("mpi: rank %d reliable send to rank %d: %v", r.id, d.id, err)
	}
	w.relLaunch(st, arrival)
}

// relLaunch applies the forward link's fault verdict to the head frame,
// already booked on the NIC (arriving at `arrival` if unharmed), and arms
// the retransmission timer.
func (w *World) relLaunch(st *relState, arrival sim.Time) {
	r, d, fr := st.src, st.dst, st.sendq[st.head]
	now := w.K.Now()
	v := w.Faults.LinkVerdict(r.node.ID, d.node.ID, fr.size)
	if v.Drop || v.Corrupt {
		// Lost or garbled in flight: no delivery, the timer will resend.
		// (A corrupted frame is discarded by the receiver's checksum; for
		// timing purposes that equals a drop of the delivery event.)
		w.Faults.Logf(now, "mpi: frame seq=%d rank%d->rank%d lost (drop=%v corrupt=%v)",
			fr.seq, r.id, d.id, v.Drop, v.Corrupt)
	} else {
		w.relHopAfter(arrival+v.Delay-now, st, fr.seq, fr.env)
	}
	rto := (arrival - now) + w.Par.NetLatency + w.Clu.Net.SerializationTime(relAckBytes) + 4*w.Par.MPISendOverhead
	mult := st.attempts
	if mult > relBackoffCap {
		mult = relBackoffCap
	}
	rto *= sim.Time(1) << uint(mult)
	st.timer.Cancel()
	st.timer = w.K.AfterTimer(rto, st.timeout)
}

// relHopAfter schedules a frame copy carrying env (or, with env nil, an
// ack) of seq on st to arrive after delay.
func (w *World) relHopAfter(delay sim.Time, st *relState, seq uint32, env *envelope) {
	var h *relHop
	if n := len(w.hopFree); n > 0 {
		h = w.hopFree[n-1]
		w.hopFree = w.hopFree[:n-1]
	} else {
		h = &relHop{}
		h.fire = func() { w.relArrive(h) }
	}
	h.st, h.seq, h.env = st, seq, env
	w.K.After(delay, h.fire)
}

// relArrive recycles a hop that has arrived and acts on it: an ack at the
// sender, a frame copy at the receiver.
func (w *World) relArrive(h *relHop) {
	st, seq, env := h.st, h.seq, h.env
	*h = relHop{fire: h.fire}
	w.hopFree = append(w.hopFree, h)
	if env == nil {
		w.relAcked(st, seq)
	} else {
		w.relDeliver(st, seq, env)
	}
}

// relDeliver runs at the receiver when a frame copy survives the link.
// Only the first copy of a frame to arrive reads its envelope.
func (w *World) relDeliver(st *relState, seq uint32, env *envelope) {
	switch {
	case seq == st.expect:
		st.expect++
		st.dst.deliver(env)
	case seq < st.expect:
		// Retransmit of an already-delivered frame (its ack was lost or
		// slow): discard the duplicate but re-ack so the sender advances.
		w.Faults.Counts.DupFrames++
	default:
		// Unreachable under stop-and-wait: frame seq+1 is only ever
		// transmitted after seq's ack, which is only sent after delivery.
		return
	}
	w.relAck(st, seq)
}

// relAck sends the 4-byte acknowledgement back across the reverse link.
func (w *World) relAck(st *relState, seq uint32) {
	r, d := st.src, st.dst
	v := w.Faults.LinkVerdict(d.node.ID, r.node.ID, relAckBytes)
	if v.Drop || v.Corrupt {
		w.Faults.Counts.AckDrops++
		w.Faults.Logf(w.K.Now(), "mpi: ack seq=%d rank%d->rank%d lost", seq, d.id, r.id)
		return
	}
	w.relHopAfter(w.Par.NetLatency+w.Clu.Net.SerializationTime(relAckBytes)+v.Delay, st, seq, nil)
}

// relAcked runs at the sender when an ack arrives.
func (w *World) relAcked(st *relState, seq uint32) {
	if st.dead || !st.pending() || st.sendq[st.head].seq != seq {
		return // stale ack (duplicate, or for a frame already advanced past)
	}
	st.timer.Cancel()
	st.pop()
	st.attempts = 0
	if !st.pending() {
		return
	}
	arrival, err := w.Clu.Net.Reserve(st.src.node.ID, st.dst.node.ID, st.sendq[st.head].size)
	if err != nil {
		w.K.Abort(err)
		return
	}
	w.relLaunch(st, arrival)
}

// relTimeout fires when the head frame's ack did not arrive in time:
// retransmit with doubled timeout, or sever the pair after
// relMaxAttempts transmissions.
func (w *World) relTimeout(st *relState) {
	if st.dead || !st.pending() {
		return
	}
	r, d := st.src, st.dst
	st.attempts++
	fr := st.sendq[st.head]
	if st.attempts >= relMaxAttempts {
		queued := len(st.sendq) - st.head
		st.dead = true
		w.Faults.Counts.GiveUps++
		w.Faults.Counts.GiveUpDrops += int64(queued)
		w.Faults.Logf(w.K.Now(), "mpi: rank%d->rank%d giving up on seq=%d after %d attempts; severing pair (%d queued frames dropped)",
			r.id, d.id, fr.seq, st.attempts, queued)
		st.sendq, st.head = nil, 0
		return
	}
	w.Faults.Counts.Retransmits++
	w.Faults.Logf(w.K.Now(), "mpi: retransmit seq=%d rank%d->rank%d (attempt %d)", fr.seq, r.id, d.id, st.attempts+1)
	arrival, err := w.Clu.Net.Reserve(r.node.ID, d.node.ID, fr.size)
	if err != nil {
		w.K.Abort(err)
		return
	}
	w.relLaunch(st, arrival)
}

// RelDead reports whether the directed rank pair was severed by the
// reliability layer's give-up path (tests and diagnostics).
func (w *World) RelDead(src, dst int) bool {
	if w.rel == nil {
		return false
	}
	st := w.rel[relKey{src, dst}]
	return st != nil && st.dead
}
