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

// relFrame is one sequenced eager message awaiting acknowledgement.
type relFrame struct {
	seq uint32
	env *envelope
}

// relState is the shared protocol state of one directed rank pair: the
// sender-side queue and timer live at the source, the receiver-side
// expectation at the destination (one struct is fine — the sim is
// single-threaded).
type relState struct {
	// Sender side.
	sendq    []*relFrame // head is in flight; the rest wait for its ack
	nextSeq  uint32
	timer    *sim.Timer
	attempts int  // transmissions of the current head so far
	dead     bool // gave up: pair severed, sends dropped

	// Receiver side.
	expect uint32
}

func (w *World) relStateFor(src, dst int) *relState {
	if w.rel == nil {
		w.rel = make(map[relKey]*relState)
	}
	k := relKey{src, dst}
	st := w.rel[k]
	if st == nil {
		st = &relState{}
		w.rel[k] = st
	}
	return st
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
	env.reliable = true
	st := w.relStateFor(r.id, d.id)
	if st.dead {
		w.Faults.Counts.GiveUpDrops++
		w.Faults.Logf(w.K.Now(), "mpi: rank%d->rank%d dead (gave up), dropping %d-byte send tag %d",
			r.id, d.id, env.size, env.tag)
		return
	}
	fr := &relFrame{seq: st.nextSeq, env: env}
	st.nextSeq++
	st.sendq = append(st.sendq, fr)
	if len(st.sendq) > 1 {
		return // transmits when the head is acked
	}
	arrival, err := w.Clu.Net.Send(p, r.node.ID, d.node.ID, env.size)
	if err != nil {
		p.Fatalf("mpi: rank %d reliable send to rank %d: %v", r.id, d.id, err)
	}
	w.relLaunch(r, d, st, fr, arrival)
}

// relLaunch applies the forward link's fault verdict to a frame already
// booked on the NIC (arriving at `arrival` if unharmed) and arms the
// retransmission timer.
func (w *World) relLaunch(r, d *Rank, st *relState, fr *relFrame, arrival sim.Time) {
	now := w.K.Now()
	v := w.Faults.LinkVerdict(r.node.ID, d.node.ID, fr.env.size)
	if v.Drop || v.Corrupt {
		// Lost or garbled in flight: no delivery, the timer will resend.
		// (A corrupted frame is discarded by the receiver's checksum; for
		// timing purposes that equals a drop of the delivery event.)
		w.Faults.Logf(now, "mpi: frame seq=%d rank%d->rank%d lost (drop=%v corrupt=%v)",
			fr.seq, r.id, d.id, v.Drop, v.Corrupt)
	} else {
		at := arrival + v.Delay
		w.K.After(at-now, func() { w.relDeliver(r, d, st, fr) })
	}
	rto := (arrival - now) + w.Par.NetLatency + w.Clu.Net.SerializationTime(relAckBytes) + 4*w.Par.MPISendOverhead
	mult := st.attempts
	if mult > relBackoffCap {
		mult = relBackoffCap
	}
	rto *= sim.Time(1) << uint(mult)
	if st.timer != nil {
		st.timer.Cancel()
	}
	st.timer = w.K.AfterTimer(rto, func() { w.relTimeout(r, d, st) })
}

// relDeliver runs at the receiver when a frame survives the link.
func (w *World) relDeliver(r, d *Rank, st *relState, fr *relFrame) {
	switch {
	case fr.seq == st.expect:
		st.expect++
		d.deliver(fr.env)
	case fr.seq < st.expect:
		// Retransmit of an already-delivered frame (its ack was lost or
		// slow): discard the duplicate but re-ack so the sender advances.
		w.Faults.Counts.DupFrames++
	default:
		// Unreachable under stop-and-wait: frame seq+1 is only ever
		// transmitted after seq's ack, which is only sent after delivery.
		return
	}
	w.relAck(r, d, st, fr.seq)
}

// relAck sends the 4-byte acknowledgement back across the reverse link.
func (w *World) relAck(r, d *Rank, st *relState, seq uint32) {
	now := w.K.Now()
	v := w.Faults.LinkVerdict(d.node.ID, r.node.ID, relAckBytes)
	if v.Drop || v.Corrupt {
		w.Faults.Counts.AckDrops++
		w.Faults.Logf(now, "mpi: ack seq=%d rank%d->rank%d lost", seq, d.id, r.id)
		return
	}
	lat := w.Par.NetLatency + w.Clu.Net.SerializationTime(relAckBytes) + v.Delay
	w.K.After(lat, func() { w.relAcked(r, d, st, seq) })
}

// relAcked runs at the sender when an ack arrives.
func (w *World) relAcked(r, d *Rank, st *relState, seq uint32) {
	if st.dead || len(st.sendq) == 0 || st.sendq[0].seq != seq {
		return // stale ack (duplicate, or for a frame already advanced past)
	}
	if st.timer != nil {
		st.timer.Cancel()
		st.timer = nil
	}
	st.sendq = st.sendq[1:]
	st.attempts = 0
	if len(st.sendq) == 0 {
		return
	}
	fr := st.sendq[0]
	arrival, err := w.Clu.Net.Reserve(r.node.ID, d.node.ID, fr.env.size)
	if err != nil {
		w.K.Abort(err)
		return
	}
	w.relLaunch(r, d, st, fr, arrival)
}

// relTimeout fires when the head frame's ack did not arrive in time:
// retransmit with doubled timeout, or sever the pair after
// relMaxAttempts transmissions.
func (w *World) relTimeout(r, d *Rank, st *relState) {
	if st.dead || len(st.sendq) == 0 {
		return
	}
	st.timer = nil
	st.attempts++
	fr := st.sendq[0]
	if st.attempts >= relMaxAttempts {
		st.dead = true
		w.Faults.Counts.GiveUps++
		w.Faults.Counts.GiveUpDrops += int64(len(st.sendq))
		w.Faults.Logf(w.K.Now(), "mpi: rank%d->rank%d giving up on seq=%d after %d attempts; severing pair (%d queued frames dropped)",
			r.id, d.id, fr.seq, st.attempts, len(st.sendq))
		st.sendq = nil
		return
	}
	w.Faults.Counts.Retransmits++
	w.Faults.Logf(w.K.Now(), "mpi: retransmit seq=%d rank%d->rank%d (attempt %d)", fr.seq, r.id, d.id, st.attempts+1)
	arrival, err := w.Clu.Net.Reserve(r.node.ID, d.node.ID, fr.env.size)
	if err != nil {
		w.K.Abort(err)
		return
	}
	w.relLaunch(r, d, st, fr, arrival)
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
