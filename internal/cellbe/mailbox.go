package cellbe

import "cellpilot/internal/sim"

// Mailbox models one direction of an SPE's 32-bit mailbox channel. The real
// hardware provides a 4-entry inbound mailbox (PPE→SPE), a 1-entry outbound
// mailbox (SPE→PPE) and a 1-entry interrupting outbound mailbox; writes to a
// full mailbox and reads from an empty one stall. A mailbox is part of its
// SPE's hardware block (see NewCellNode) and creates its queue on the first
// operation that queues, so a mailbox no program uses holds none.
type Mailbox struct {
	spe *SPE
	q   *sim.Queue[uint32]
	// hook, when set, is consulted on every write with the writer's fault
	// verdict: drop loses the word after the write cost is charged (the
	// store to the channel faults silently), stall adds latency first.
	hook func() (drop bool, stall sim.Time)
}

// SetFaultHook installs the fault-injection hook for this mailbox
// direction. A nil hook (the default) leaves writes untouched.
func (m *Mailbox) SetFaultHook(h func() (drop bool, stall sim.Time)) { m.hook = h }

// inbound reports whether m is its SPE's PPE→SPE mailbox.
func (m *Mailbox) inbound() bool { return m == m.spe.InMbox }

// queue returns the mailbox's queue, creating it on first use; it is named
// after the SPE and direction, as in "cell0/spe3/in".
func (m *Mailbox) queue(p *sim.Proc) *sim.Queue[uint32] {
	if m.q == nil {
		suffix := "/out"
		if m.inbound() {
			suffix = "/in"
		}
		m.q = sim.NewQueue[uint32](p.Kernel(), m.spe.name(suffix), m.Capacity())
	}
	return m.q
}

// Write pushes one entry, stalling p while the mailbox is full: WriteCtl
// with no deadline and no stop, which cannot fail.
func (m *Mailbox) Write(p *sim.Proc, v uint32) {
	m.WriteCtl(p, v, 0, nil)
}

// Read pops one entry, stalling p while the mailbox is empty: ReadCtl
// with no deadline and no stop, which cannot fail.
func (m *Mailbox) Read(p *sim.Proc) uint32 {
	v, _ := m.ReadCtl(p, 0, nil)
	return v
}

// TryRead pops without stalling; ok reports whether an entry was present.
// The read-status check itself costs a mailbox read (the Co-Pilot's polling
// cost comes from here).
func (m *Mailbox) TryRead(p *sim.Proc) (v uint32, ok bool) {
	p.Advance(m.spe.params().MailboxRead)
	if m.q == nil {
		return 0, false
	}
	return m.q.TryGet()
}

// TryWrite pushes without stalling; ok reports whether space existed.
func (m *Mailbox) TryWrite(p *sim.Proc, v uint32) bool {
	p.Advance(m.spe.params().MailboxWrite)
	return m.queue(p).TryPut(v)
}

// WriteCtl pushes one entry, stalling p while the mailbox is full,
// bounded by an absolute deadline (0 = none) and an optional stop
// predicate re-checked on every wake (see sim.Queue.PutCtl), so a write to
// a full mailbox whose reader died cannot park forever. The fault hook,
// if set, applies first.
func (m *Mailbox) WriteCtl(p *sim.Proc, v uint32, deadline sim.Time, stop func() error) error {
	p.Advance(m.spe.params().MailboxWrite)
	if m.hook != nil {
		drop, stall := m.hook()
		if stall > 0 {
			p.Advance(stall)
		}
		if drop {
			return nil
		}
	}
	return m.queue(p).PutCtl(p, v, deadline, stop)
}

// ReadCtl pops one entry, stalling p while the mailbox is empty, bounded
// by an absolute deadline (0 = none) and an optional stop predicate
// re-checked on every wake. It returns sim.ErrTimeout when the deadline
// passes first. The read cost is charged before the wait, so a deadline
// of now+MailboxRead+d bounds the wait itself by d.
func (m *Mailbox) ReadCtl(p *sim.Proc, deadline sim.Time, stop func() error) (uint32, error) {
	p.Advance(m.spe.params().MailboxRead)
	return m.queue(p).GetCtl(p, deadline, stop)
}

// Count reports the entries currently queued (spe_out_mbox_status).
func (m *Mailbox) Count() int {
	if m.q == nil {
		return 0
	}
	return m.q.Len()
}

// Capacity reports the mailbox entry capacity: 4 inbound, 1 outbound.
func (m *Mailbox) Capacity() int {
	if m.inbound() {
		return 4
	}
	return 1
}

// HighWater reports the largest occupancy the mailbox ever reached — the
// congestion watermark surfaced by the telemetry layer.
func (m *Mailbox) HighWater() int {
	if m.q == nil {
		return 0
	}
	return m.q.HighWater()
}
