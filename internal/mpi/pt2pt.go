package mpi

import (
	"fmt"
	"slices"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// envelope is a message in flight or queued unexpected at the receiver.
type envelope struct {
	src, tag int
	size     int
	eager    bool
	// data is the eager payload: a private copy made once at send time,
	// never nil, which a receive with no buffer takes as its result.
	data []byte
	// Rendezvous state. srcBuf is the sender's buffer, read at the data
	// phase; sender is the sending proc and sendReq its Isend request, if
	// any; req is the matched receive. sent is set when the data phase
	// releases the sender, landed when the receive completes. waiting
	// marks a blocking sender that has yet to see sent: the envelope is
	// recycled once it has landed and no sender waits on it.
	srcBuf  []byte
	sender  *sim.Proc
	sendReq *Request
	req     *recvReq
	sent    bool
	landed  bool
	waiting bool
	srcNode int
	dstNode int
	xfer    int64 // observability transfer id (TagNextXfer), 0 = untagged
	// cancelled marks a rendezvous announcement whose sender abandoned the
	// wait (SendCtl deadline/stop); deliver discards it.
	cancelled bool
	arrival   uint64 // unexpected-queue arrival number
	dst       *Rank
	// fire delivers the envelope to dst; move and land are the two steps
	// of the rendezvous data phase, built the first time the record
	// carries a rendezvous message. Each is built once per record, so
	// scheduling a recycled envelope's callbacks allocates nothing.
	fire, move, land func()
}

// newEnvelope returns an envelope from rank r to rank d. It reuses a
// record from the world's free list when there is one; complete returns
// eager records to that list once their receive has taken the payload,
// and land or the blocking sender returns rendezvous ones.
func (w *World) newEnvelope(r, d *Rank, tag, size int) *envelope {
	var env *envelope
	if n := len(w.envFree); n > 0 {
		env = w.envFree[n-1]
		w.envFree = w.envFree[:n-1]
	} else {
		env = &envelope{}
		env.fire = func() { env.dst.deliver(env) }
	}
	env.src, env.tag, env.size, env.dst = r.id, tag, size, d
	env.srcNode, env.dstNode = r.node.ID, d.node.ID
	env.xfer = r.takeXfer()
	return env
}

// freeEnvelope recycles an envelope that nothing holds any more: an eager
// one whose payload a receive took or that a severed reliable pair
// dropped, or a rendezvous one whose data phase has landed and whose
// sender no longer waits on it. deliver and take have unlinked it. A
// reliable frame hands its envelope to the receiver at its first delivery
// and never reads it again (see relFrame), so the receive may recycle it.
// Abandoned rendezvous envelopes, whose announcement or data phase may
// still be scheduled, never come here.
func (w *World) freeEnvelope(env *envelope) {
	*env = envelope{fire: env.fire, move: env.move, land: env.land}
	w.envFree = append(w.envFree, env)
}

// sendWait is a blocked rendezvous sender's park reason.
type sendWait envelope

func (e *sendWait) String() string {
	return fmt.Sprintf("mpi rendezvous send rank%d->rank%d tag %d (%d bytes)", e.src, e.dst.id, e.tag, e.size)
}

// envKey addresses one per-(source, tag) FIFO in the unexpected queue.
type envKey struct{ src, tag int }

// unexpectedQueue holds unmatched arrivals in one FIFO per (source, tag),
// each in arrival order. The hot path — every channel operation receives
// from a specific peer on a specific tag — pops a FIFO's head in O(1). A
// wildcard query takes, among the heads of the FIFOs it matches, the one
// that arrived first; a FIFO's head is its only candidate, because every
// entry of a FIFO matches the same queries. Choosing by arrival number
// keeps matching deterministic although the map's iteration is not.
type unexpectedQueue struct {
	byKey map[envKey]*envFIFO
	// spare holds emptied FIFOs with their storage, so steady traffic on
	// a key re-queues without allocating.
	spare []*envFIFO
	next  uint64 // arrival number of the next envelope
}

// envFIFO is one key's arrivals, items[head:]; the map holds only
// non-empty ones.
type envFIFO struct {
	items []*envelope
	head  int
}

func (q *unexpectedQueue) add(env *envelope) {
	if q.byKey == nil {
		q.byKey = map[envKey]*envFIFO{}
	}
	k := envKey{env.src, env.tag}
	f := q.byKey[k]
	if f == nil {
		if n := len(q.spare); n > 0 {
			f = q.spare[n-1]
			q.spare = q.spare[:n-1]
		} else {
			f = &envFIFO{}
		}
		q.byKey[k] = f
	}
	f.items = append(f.items, env)
	env.arrival = q.next
	q.next++
}

// peek returns the earliest-arrived envelope matching (src, tag) without
// consuming it.
func (q *unexpectedQueue) peek(src, tag int) (*envelope, bool) {
	if len(q.byKey) == 0 {
		return nil, false
	}
	if src != AnySource && tag != AnyTag {
		if f := q.byKey[envKey{src, tag}]; f != nil {
			return f.items[f.head], true
		}
		return nil, false
	}
	var first *envelope
	for k, f := range q.byKey {
		if match(src, tag, k.src, k.tag) {
			if env := f.items[f.head]; first == nil || env.arrival < first.arrival {
				first = env
			}
		}
	}
	return first, first != nil
}

// peekMulti returns the earliest-arrived envelope matching any spec, with
// the index of the first spec it matches — the ProbeMulti contract.
func (q *unexpectedQueue) peekMulti(specs []ProbeSpec) (int, *envelope, bool) {
	var first *envelope
	firstSpec := 0
	for k, f := range q.byKey {
		env := f.items[f.head]
		if first != nil && env.arrival > first.arrival {
			continue
		}
		for si, sp := range specs {
			if match(sp.Src, sp.Tag, k.src, k.tag) {
				first, firstSpec = env, si
				break
			}
		}
	}
	return firstSpec, first, first != nil
}

// take consumes the earliest-arrived envelope matching (src, tag).
func (q *unexpectedQueue) take(src, tag int) (*envelope, bool) {
	env, ok := q.peek(src, tag)
	if !ok {
		return nil, false
	}
	q.unlink(env)
	return env, true
}

// remove drops a specific envelope if still queued (SendCtl withdrawing a
// cancelled rendezvous announcement).
func (q *unexpectedQueue) remove(env *envelope) {
	if f := q.byKey[envKey{env.src, env.tag}]; f != nil && slices.Contains(f.items[f.head:], env) {
		q.unlink(env)
	}
}

func (q *unexpectedQueue) unlink(env *envelope) {
	k := envKey{env.src, env.tag}
	f := q.byKey[k]
	if f.items[f.head] == env {
		f.items[f.head] = nil // O(1) head pop — the overwhelmingly common case
		f.head++
	} else {
		for i := f.head; i < len(f.items); i++ {
			if f.items[i] == env {
				copy(f.items[i:], f.items[i+1:])
				f.items[len(f.items)-1] = nil
				f.items = f.items[:len(f.items)-1]
				break
			}
		}
	}
	switch {
	case f.head == len(f.items):
		f.items, f.head = f.items[:0], 0
		delete(q.byKey, k)
		q.spare = append(q.spare, f)
	case f.head > 32 && f.head > len(f.items)/2:
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
}

// recvReq is a posted receive awaiting a matching envelope.
type recvReq struct {
	rank     *Rank
	src, tag int
	proc     *sim.Proc
	buf      []byte   // destination; nil means take or allocate one
	segs     [][]byte // vectored destination (RecvIntoVec); overrides buf
	segTotal int
	status   Status
	out      []byte
	done     bool
	// abandoned marks a receive whose ctl fired (RecvCtl deadline/stop); a
	// data phase already in flight completes into the void.
	abandoned bool
}

// newRecvReq returns an internal receive record for recv, reusing one
// from the world's free list when it can.
func (w *World) newRecvReq(r *Rank, p *sim.Proc, src, tag int) *recvReq {
	var req *recvReq
	if n := len(w.reqFree); n > 0 {
		req = w.reqFree[n-1]
		w.reqFree = w.reqFree[:n-1]
	} else {
		req = &recvReq{}
	}
	req.rank, req.proc, req.src, req.tag = r, p, src, tag
	return req
}

// freeRecvReq recycles a completed internal receive once its caller has
// read the result. An abandoned one never comes here: a data phase in
// flight may still write to it.
func (w *World) freeRecvReq(req *recvReq) {
	*req = recvReq{}
	w.reqFree = append(w.reqFree, req)
}

// recvWait is a blocked receive's park reason.
type recvWait recvReq

func (req *recvWait) String() string {
	verb := "recv"
	if req.segs != nil {
		verb = "recvvec"
	}
	return fmt.Sprintf("mpi %s rank%d src=%d tag=%d", verb, req.rank.id, req.src, req.tag)
}

func match(src, tag, esrc, etag int) bool {
	return (src == AnySource || src == esrc) && (tag == AnyTag || tag == etag)
}

// localCopyTime is the shared-memory per-byte cost of the intra-node path.
func (w *World) localCopyTime(n int) sim.Time {
	if w.Par.LocalMPIBytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / w.Par.LocalMPIBytesPerSec * float64(sim.Second))
}

// ctrlLatency is the one-way time of a small control message (rendezvous
// RTS/CTS) between the two nodes.
func (w *World) ctrlLatency(a, b int) sim.Time {
	if a == b {
		return w.Par.LocalMPILatency
	}
	return w.Par.NetLatency
}

// Send transmits data to rank dst with the given tag. It blocks p for the
// software overhead and (remote) NIC serialization; above the eager
// threshold it additionally blocks until the receiver has posted the
// matching receive (rendezvous), which is how real MPI large-message sends
// behave and what makes unmatched large sends deadlock-visible.
func (r *Rank) Send(p *sim.Proc, dst, tag int, data []byte) {
	r.send(p, dst, tag, data, false, false, nil, Ctl{})
}

// send is the one send path behind Send, Isend, SendCtl and their *Vec
// forms. own reports that data is already a private buffer the envelope
// may keep (the *Vec senders' concatenation); otherwise an eager payload,
// or a nonblocking rendezvous one, is snapshotted here. A nonblocking send
// returns at once; its q, if any, completes when an eager message is
// buffered or the rendezvous data phase lets the sender proceed. A
// blocking send parks through its rendezvous until the data phase or ctl
// ends the wait.
func (r *Rank) send(p *sim.Proc, dst, tag int, data []byte, own, nonblocking bool, q *Request, ctl Ctl) error {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	r.bind(p)
	op := "send"
	if nonblocking {
		op = "isend"
	}
	if dst < 0 || dst >= len(r.w.ranks) {
		p.Fatalf("mpi: %s to invalid rank %d", op, dst)
	}
	w := r.w
	d := w.ranks[dst]
	p.Advance(w.Par.MPISendOverhead)
	size := len(data)
	env := w.newEnvelope(r, d, tag, size)
	env.eager = size <= w.Par.EagerThreshold
	if !own && (env.eager || nonblocking) {
		data = snapshot(data)
	}
	if env.eager {
		env.data = data
		r.sendEager(p, op, d, env)
		if q != nil {
			q.done = true // buffered: the send is locally complete
		}
		return nil
	}
	// Rendezvous: announce with an RTS; the data phase, started by the
	// matching receive, completes q or wakes the parked sender.
	env.srcBuf, env.sender, env.sendReq = data, p, q
	env.waiting = !nonblocking
	if env.move == nil {
		env.move = func() { w.move(env) }
		env.land = func() { w.land(env) }
	}
	w.K.After(w.ctrlLatency(r.node.ID, d.node.ID), env.fire)
	if nonblocking {
		return nil
	}
	var tm sim.Timer
	if ctl.Deadline > 0 {
		tm = p.WakeAt(ctl.Deadline)
	}
	for !env.sent {
		if err := ctl.check(w.K.Now()); err != nil {
			// The abandoned envelope stays waiting, so it is never
			// recycled under a scheduled delivery or data phase.
			env.cancelled = true
			d.unexpected.remove(env)
			tm.Cancel()
			return err
		}
		p.ParkFor((*sendWait)(env))
	}
	tm.Cancel()
	env.waiting = false
	if env.landed {
		w.freeEnvelope(env)
	}
	return nil
}

// sendEager moves an eager envelope toward rank d: through shared memory
// on the same node, over the NIC, or through the reliability layer on a
// faulty link.
func (r *Rank) sendEager(p *sim.Proc, op string, d *Rank, env *envelope) {
	w := r.w
	var arrival sim.Time
	if r.node.ID == d.node.ID {
		p.Advance(w.localCopyTime(env.size)) // copy into the shm mailbox
		arrival = w.K.Now() + w.Par.LocalMPILatency
	} else {
		if w.relNeeded(r, d) {
			w.relSend(p, r, d, env)
			return
		}
		var nerr error
		arrival, nerr = w.Clu.Net.Send(p, r.node.ID, d.node.ID, env.size)
		if nerr != nil {
			p.Fatalf("mpi: rank %d %s to rank %d: %v", r.id, op, d.id, nerr)
		}
	}
	w.K.After(arrival-w.K.Now(), env.fire)
}

// snapshot returns a private copy of data for an envelope to keep. It is
// never nil, so a zero-length message still arrives as an empty slice.
func snapshot(data []byte) []byte {
	return append([]byte{}, data...)
}

// deliver runs in scheduler context when an envelope reaches the receiver.
func (r *Rank) deliver(env *envelope) {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	if env.cancelled {
		return
	}
	if w := r.w; w.Flow != nil {
		w.Flow(w.ranks[env.src].node.ID, r.node.ID, env.size)
	}
	if r.arrival != nil {
		r.arrival()
	}
	r.wakeProbes(env)
	for i, req := range r.posted {
		if match(req.src, req.tag, env.src, env.tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			r.complete(env, req)
			return
		}
	}
	r.unexpected.add(env)
}

// complete pairs an envelope with a receive request: at once for an
// arrived eager message, or through the rendezvous data phase. It may run
// in scheduler context (async delivery) or in the receiver's own context
// (a Recv that found the envelope unexpected), so it wakes the receiver
// only if the receiver is parked.
//
// Rendezvous data does not book NIC occupancy (the envelope already
// modelled queueing for the header; payload contention is second-order for
// the paper's single-stream benchmarks) — it charges serialization plus
// propagation analytically.
func (r *Rank) complete(env *envelope, req *recvReq) {
	w := r.w
	if req.segs != nil && env.size != req.segTotal {
		w.K.Abort(fmt.Errorf("mpi: rank %d vectored recv expects exactly %d bytes, message has %d (tag %d from rank %d)",
			r.id, req.segTotal, env.size, env.tag, env.src))
		return
	}
	if req.segs == nil && req.buf != nil && env.size > len(req.buf) {
		w.K.Abort(fmt.Errorf("mpi: rank %d recv buffer too small: %d < %d (tag %d from rank %d)",
			r.id, len(req.buf), env.size, env.tag, env.src))
		return
	}
	if env.eager {
		req.fill(env, env.data)
		w.finish(req)
		w.freeEnvelope(env)
		return
	}
	// Rendezvous data phase: CTS travels back, then the payload. The bytes
	// leave the sender's buffer when the sender is released, so a sender
	// that reuses its buffer at once cannot change what arrives; the
	// receive completes when they land.
	cts := w.ctrlLatency(env.srcNode, env.dstNode)
	var ser, lat sim.Time
	if env.srcNode == env.dstNode {
		ser = w.localCopyTime(env.size)
		lat = w.Par.LocalMPILatency
	} else {
		ser = w.Clu.Net.SerializationTime(env.size)
		lat = w.Par.NetLatency
	}
	env.req = req
	w.K.After(cts+ser, env.move)
	w.K.After(cts+ser+lat, env.land)
}

// move is the rendezvous data phase's first step: the payload leaves the
// sender's buffer for the receive, and the sender proceeds — a parked Send
// wakes, an Isend request completes.
func (w *World) move(env *envelope) {
	env.req.fill(env, env.srcBuf)
	env.sent = true
	if env.sendReq != nil {
		env.sendReq.done = true
	}
	w.K.ReadyIfParked(env.sender)
}

// land completes the receive once the payload has arrived, and recycles
// the envelope unless a blocking sender has yet to see it sent.
func (w *World) land(env *envelope) {
	w.finish(env.req)
	env.landed = true
	if !env.waiting {
		w.freeEnvelope(env)
	}
}

// fill moves payload into the receive's destination and records its
// status. A receive with no buffer of its own takes an eager payload as
// its result: it is the envelope's private snapshot, delivered once.
func (req *recvReq) fill(env *envelope, payload []byte) {
	if req.abandoned {
		return
	}
	n := 0
	switch {
	case req.segs != nil:
		for _, seg := range req.segs {
			n += copy(seg, payload[n:])
		}
	case req.buf != nil:
		req.out = req.buf
		n = copy(req.out, payload)
	case env.eager:
		req.out = payload
		n = len(payload)
	default:
		req.out = make([]byte, env.size)
		n = copy(req.out, payload)
	}
	req.status = Status{Source: env.src, Tag: env.tag, Count: n, Xfer: env.xfer}
}

// finish completes a filled receive and wakes its receiver if parked.
func (w *World) finish(req *recvReq) {
	if req.abandoned {
		return
	}
	req.done = true
	w.K.ReadyIfParked(req.proc)
}

// Recv receives a message matching (src, tag) — wildcards allowed — into a
// fresh buffer, blocking until it arrives.
func (r *Rank) Recv(p *sim.Proc, src, tag int) ([]byte, Status) {
	out, st, _ := r.recv(p, src, tag, nil, nil, Ctl{})
	return out, st
}

// RecvInto receives into buf (which may alias simulated memory, e.g. a
// page segment of an SPE local store). The message must fit in buf.
func (r *Rank) RecvInto(p *sim.Proc, src, tag int, buf []byte) (int, Status) {
	_, st, _ := r.recv(p, src, tag, buf, nil, Ctl{})
	return st.Count, st
}

// recv is the one receive path behind Recv, RecvInto, RecvIntoVec and
// RecvCtl. It posts a receive into buf, or across segs, or into a fresh
// buffer when both are nil, and parks until a message completes it or ctl
// abandons it, which withdraws the receive. With the zero Ctl it cannot
// fail.
func (r *Rank) recv(p *sim.Proc, src, tag int, buf []byte, segs [][]byte, ctl Ctl) ([]byte, Status, error) {
	w := r.w
	w.Host.Enter(hostprof.SubsysMPI)
	defer w.Host.Exit()
	r.bind(p)
	p.Advance(w.Par.MPIRecvOverhead)
	req := w.newRecvReq(r, p, src, tag)
	req.buf, req.segs = buf, segs
	for _, seg := range segs {
		req.segTotal += len(seg)
	}
	r.post(req)
	var tm sim.Timer
	if ctl.Deadline > 0 && !req.done {
		tm = p.WakeAt(ctl.Deadline)
	}
	for !req.done {
		if err := ctl.check(w.K.Now()); err != nil {
			req.abandoned = true
			if i := slices.Index(r.posted, req); i >= 0 {
				r.posted = slices.Delete(r.posted, i, i+1)
			}
			tm.Cancel()
			return nil, Status{}, err
		}
		p.ParkFor((*recvWait)(req))
	}
	tm.Cancel()
	out, st := req.out, req.status
	w.freeRecvReq(req)
	return out, st, nil
}

// post pairs req with the earliest matching unexpected envelope, or
// queues it for a later arrival.
func (r *Rank) post(req *recvReq) {
	if env, ok := r.unexpected.take(req.src, req.tag); ok {
		r.complete(env, req)
	} else {
		r.posted = append(r.posted, req)
	}
}

// probeReq is a blocked Probe or ProbeMulti.
type probeReq struct {
	rank    int
	specs   []ProbeSpec
	proc    *sim.Proc
	status  Status
	matched int
	done    bool
}

// String is the blocked probe's park reason.
func (pr *probeReq) String() string {
	return fmt.Sprintf("mpi probemulti rank%d (%d patterns)", pr.rank, len(pr.specs))
}

func (r *Rank) wakeProbes(env *envelope) {
	for i, pr := range r.probes {
		for si, sp := range pr.specs {
			if match(sp.Src, sp.Tag, env.src, env.tag) {
				pr.status = Status{Source: env.src, Tag: env.tag, Count: env.size, Xfer: env.xfer}
				pr.matched = si
				pr.done = true
				r.probes = append(r.probes[:i], r.probes[i+1:]...)
				r.w.K.ReadyIfParked(pr.proc)
				return
			}
		}
	}
}

// Probe blocks until a message matching (src, tag) is available to Recv,
// and reports its status without consuming it.
func (r *Rank) Probe(p *sim.Proc, src, tag int) Status {
	_, st := r.ProbeMulti(p, []ProbeSpec{{Src: src, Tag: tag}})
	return st
}

// Iprobe reports whether a message matching (src, tag) is available,
// without blocking or consuming it.
func (r *Rank) Iprobe(p *sim.Proc, src, tag int) (Status, bool) {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	if env, ok := r.unexpected.peek(src, tag); ok {
		return Status{Source: env.src, Tag: env.tag, Count: env.size, Xfer: env.xfer}, true
	}
	return Status{}, false
}
