package mpi

import (
	"errors"
	"fmt"

	"cellpilot/internal/sim"
)

// ErrDeadline is returned by the Ctl-bounded operations when the deadline
// passes before the operation completes.
var ErrDeadline = errors.New("mpi: operation deadline exceeded")

// Ctl bounds a blocking operation. The zero Ctl imposes nothing — a
// Ctl-variant call with a zero Ctl parks at exactly the same instants as
// its plain counterpart, which is what keeps hardened runs bit-identical
// to clean ones when no fault machinery is armed.
type Ctl struct {
	// Deadline is an absolute virtual time after which the operation
	// returns ErrDeadline (0 = none).
	Deadline sim.Time
	// Stop is re-evaluated on every wake; a non-nil error abandons the
	// operation and is returned verbatim. The Pilot layer uses it to pull
	// blocked processes off channels that a fault just poisoned.
	Stop func() error
}

func (c Ctl) check(now sim.Time) error {
	if c.Stop != nil {
		if err := c.Stop(); err != nil {
			return err
		}
	}
	if c.Deadline > 0 && now >= c.Deadline {
		return ErrDeadline
	}
	return nil
}

// armed reports whether the ctl can ever abandon an operation.
func (c Ctl) armed() bool { return c.Deadline > 0 || c.Stop != nil }

// RecvCtl is Recv bounded by ctl. On abandonment the posted receive is
// withdrawn; a message that arrives later queues as unexpected for a
// future receive.
func (r *Rank) RecvCtl(p *sim.Proc, src, tag int, ctl Ctl) ([]byte, Status, error) {
	r.bind(p)
	w := r.w
	p.Advance(w.Par.MPIRecvOverhead)
	req := &recvReq{src: src, tag: tag, proc: p}
	if env, ok := r.takeUnexpected(src, tag); ok {
		r.complete(env, req)
	} else {
		r.posted = append(r.posted, req)
	}
	var tm *sim.Timer
	if ctl.Deadline > 0 && !req.done {
		tm = w.K.AfterTimer(ctl.Deadline-w.K.Now(), func() { w.K.ReadyIfParked(p) })
	}
	for !req.done {
		if err := ctl.check(w.K.Now()); err != nil {
			req.abandoned = true
			for i, q := range r.posted {
				if q == req {
					r.posted = append(r.posted[:i], r.posted[i+1:]...)
					break
				}
			}
			tm.Cancel()
			return nil, Status{}, err
		}
		p.Park(fmt.Sprintf("mpi recv rank%d src=%d tag=%d", r.id, src, tag))
	}
	tm.Cancel()
	return req.out, req.status, nil
}

// SendCtl is Send bounded by ctl. Only the rendezvous wait (a payload
// above the eager threshold waiting for the matching receive) can be
// abandoned: eager sends are buffered and complete locally, exactly as in
// Send. An abandoned rendezvous withdraws its RTS announcement; the
// message is never delivered.
func (r *Rank) SendCtl(p *sim.Proc, dst, tag int, data []byte, ctl Ctl) error {
	return r.send(p, dst, tag, data, false, nil, ctl)
}

// SendVecCtl is SendVec bounded by ctl.
func (r *Rank) SendVecCtl(p *sim.Proc, dst, tag int, ctl Ctl, segs ...[]byte) error {
	return r.send(p, dst, tag, concat(segs), true, nil, ctl)
}
