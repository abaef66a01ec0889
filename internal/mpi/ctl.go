package mpi

import (
	"errors"

	"cellpilot/internal/sim"
)

// ErrDeadline is returned by the Ctl-bounded operations when the deadline
// passes before the operation completes.
var ErrDeadline = errors.New("mpi: operation deadline exceeded")

// Ctl bounds a blocking operation. Every blocking send and receive runs
// its bounded form; the plain Send, Recv and their variants pass the zero
// Ctl, which imposes nothing and arms no timer.
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

// RecvCtl is Recv bounded by ctl. On abandonment the posted receive is
// withdrawn; a message that arrives later queues as unexpected for a
// future receive.
func (r *Rank) RecvCtl(p *sim.Proc, src, tag int, ctl Ctl) ([]byte, Status, error) {
	return r.recv(p, src, tag, nil, nil, ctl)
}

// SendCtl is Send bounded by ctl. Only the rendezvous wait (a payload
// above the eager threshold waiting for the matching receive) can be
// abandoned: eager sends are buffered and complete locally, exactly as in
// Send. An abandoned rendezvous withdraws its RTS announcement; the
// message is never delivered.
func (r *Rank) SendCtl(p *sim.Proc, dst, tag int, data []byte, ctl Ctl) error {
	return r.send(p, dst, tag, data, false, false, nil, ctl)
}

// SendVecCtl is SendVec bounded by ctl.
func (r *Rank) SendVecCtl(p *sim.Proc, dst, tag int, ctl Ctl, segs ...[]byte) error {
	return r.send(p, dst, tag, concat(segs), true, false, nil, ctl)
}
