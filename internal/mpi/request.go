package mpi

import "cellpilot/internal/sim"

// Request is a nonblocking operation handle (MPI_Request). Complete it
// with Wait, Waitall or Test on the owning rank.
type Request struct {
	// recvReq is an Irecv's posted receive, completed in place when a
	// message matches; a send request uses only its done flag.
	recvReq
	rank *Rank
}

// Done reports whether the operation has completed (without progressing
// anything; use Test for MPI_Test semantics).
func (q *Request) Done() bool { return q.done }

// Isend starts a nonblocking send (MPI_Isend). The payload is snapshotted
// at call time, so the caller may reuse the buffer immediately; the
// request completes when an eager message is buffered or a rendezvous
// data phase finishes.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, data []byte) *Request {
	q := &Request{rank: r}
	r.send(p, dst, tag, data, false, q, Ctl{})
	return q
}

// Irecv posts a nonblocking receive (MPI_Irecv). The message lands in a
// fresh buffer retrievable from Wait.
func (r *Rank) Irecv(p *sim.Proc, src, tag int) *Request {
	return r.irecv(p, src, tag, nil)
}

// IrecvInto is Irecv receiving into buf (which may alias simulated
// memory).
func (r *Rank) IrecvInto(p *sim.Proc, src, tag int, buf []byte) *Request {
	return r.irecv(p, src, tag, buf)
}

func (r *Rank) irecv(p *sim.Proc, src, tag int, buf []byte) *Request {
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	q := &Request{rank: r, recvReq: recvReq{src: src, tag: tag, proc: p, buf: buf}}
	if env, ok := r.takeUnexpected(src, tag); ok {
		r.complete(env, &q.recvReq)
	} else {
		r.posted = append(r.posted, &q.recvReq)
	}
	return q
}

// Wait blocks until the request completes (MPI_Wait) and returns the
// received payload (nil for sends) and status.
func (r *Rank) Wait(p *sim.Proc, q *Request) ([]byte, Status) {
	r.bind(p)
	if q.rank != r {
		p.Fatalf("mpi: waiting on another rank's request")
	}
	for !q.done {
		p.Park(r.waitWhy)
	}
	return q.out, q.status
}

// Waitall completes every request (MPI_Waitall).
func (r *Rank) Waitall(p *sim.Proc, qs []*Request) {
	for _, q := range qs {
		r.Wait(p, q)
	}
}

// Test reports whether the request has completed, without blocking
// (MPI_Test); it charges the usual per-call software cost.
func (r *Rank) Test(p *sim.Proc, q *Request) bool {
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	return q.done
}

// Sendrecv performs a combined send and receive that cannot deadlock
// against a matching Sendrecv on the peer (MPI_Sendrecv).
func (r *Rank) Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status) {
	rq := r.Irecv(p, src, recvTag)
	sq := r.Isend(p, dst, sendTag, data)
	out, st := r.Wait(p, rq)
	r.Wait(p, sq)
	return out, st
}
