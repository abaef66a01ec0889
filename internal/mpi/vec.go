package mpi

import (
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// SendVec sends the concatenation of segments as one message. The Co-Pilot
// uses it to prepend a validation header to a payload that lives in SPE
// local-store pages without staging the payload through main memory
// (the concatenation is a Go implementation detail and the message's only
// copy; the *time* charged is the single-message cost, which is what the
// zero-copy design buys).
func (r *Rank) SendVec(p *sim.Proc, dst, tag int, segs ...[]byte) {
	r.send(p, dst, tag, concat(segs), true, false, nil, Ctl{})
}

// IsendVec is the nonblocking SendVec: the segments are snapshotted and
// the send proceeds without the caller, who gets no request to wait on.
// The Co-Pilot relays SPE writes this way — a blocking relay to a PPE
// that is itself mid-send toward the Co-Pilot would be a circular wait —
// and never waits for a relay to finish.
func (r *Rank) IsendVec(p *sim.Proc, dst, tag int, segs ...[]byte) {
	r.send(p, dst, tag, concat(segs), true, true, nil, Ctl{})
}

// concat joins segs into one new buffer, never nil, which the message
// then owns.
func concat(segs [][]byte) []byte {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	for _, s := range segs {
		buf = append(buf, s...)
	}
	return buf
}

// RecvIntoVec receives one message scattered across the given segments in
// order (header into scratch, payload straight into local-store pages).
// The message size must exactly fill the segments. The receive keeps segs
// until it completes, so a caller that passes a slice it owns (segs...)
// rather than a list of segments spares the variadic slice's allocation.
func (r *Rank) RecvIntoVec(p *sim.Proc, src, tag int, segs ...[]byte) Status {
	_, st, _ := r.recv(p, src, tag, nil, segs, Ctl{})
	return st
}

// OnArrival registers fn to run (in scheduler context) whenever a message
// is delivered to this rank, whether or not a receive was posted. The
// Co-Pilot registers a nudge here so its event loop can block instead of
// spinning.
func (r *Rank) OnArrival(fn func()) { r.arrival = fn }

// ProbeSpec is one (source, tag) pattern for ProbeMulti.
type ProbeSpec struct {
	Src, Tag int
}

// ProbeMulti blocks until a message matching any of the specs is available
// and returns the index of the first matching spec with the message's
// status; the message is not consumed. It is the primitive behind Pilot's
// bundle select.
func (r *Rank) ProbeMulti(p *sim.Proc, specs []ProbeSpec) (int, Status) {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	if i, env, ok := r.unexpected.peekMulti(specs); ok {
		return i, Status{Source: env.src, Tag: env.tag, Count: env.size, Xfer: env.xfer}
	}
	pr := &probeReq{rank: r.id, specs: specs, proc: p}
	r.probes = append(r.probes, pr)
	for !pr.done {
		p.ParkFor(pr)
	}
	return pr.matched, pr.status
}
