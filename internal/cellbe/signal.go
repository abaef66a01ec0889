package cellbe

import "cellpilot/internal/sim"

// SignalMode selects a signal-notification register's accumulation
// behaviour.
type SignalMode int

// Signal modes (SPU_SignalNotify configuration).
const (
	// SignalOverwrite replaces the register value on each write.
	SignalOverwrite SignalMode = iota
	// SignalOR accumulates writes bitwise, letting many senders each own
	// a bit — the pattern BlockLib-style libraries use for barriers.
	SignalOR
)

// Signal models one of an SPE's two signal-notification registers
// (SNR1/SNR2): a 32-bit register written by other processors through the
// problem-state mapping and read-and-cleared by the SPU, which stalls
// while the register is zero. SNR1 is in OR mode and SNR2 in overwrite
// mode, the usual Linux-on-Cell configuration.
type Signal struct {
	spe    *SPE
	value  uint32
	waiter *sim.Proc
}

// Mode reports the configured accumulation mode.
func (s *Signal) Mode() SignalMode {
	if s == s.spe.SNR1 {
		return SignalOR
	}
	return SignalOverwrite
}

// name identifies the register, as in "cell0/spe3/snr1".
func (s *Signal) name() string {
	if s == s.spe.SNR1 {
		return s.spe.name("/snr1")
	}
	return s.spe.name("/snr2")
}

// Pending reports the current register value without consuming it.
func (s *Signal) Pending() uint32 { return s.value }

// Write delivers v to the register (spe_signal_write / an MMIO store
// through the EA mapping). In OR mode bits accumulate; in overwrite mode
// the value is replaced. A waiting SPU is released if the register
// becomes non-zero.
func (s *Signal) Write(p *sim.Proc, v uint32) {
	p.Advance(s.spe.params().MailboxWrite) // same MMIO cost class as a mailbox store
	if s.Mode() == SignalOR {
		s.value |= v
	} else {
		s.value = v
	}
	if s.value != 0 && s.waiter != nil {
		p.Kernel().ReadyIfParked(s.waiter)
	}
}

// Read blocks the SPU until the register is non-zero, then returns and
// clears it (spu_read_signal1/2).
func (s *Signal) Read(p *sim.Proc) uint32 {
	p.Advance(s.spe.params().MailboxRead)
	for s.value == 0 {
		if s.waiter != nil && s.waiter != p {
			p.Fatalf("cellbe: two readers on signal %s", s.name())
		}
		s.waiter = p
		p.ParkFor((*signalRead)(s))
	}
	s.waiter = nil
	v := s.value
	s.value = 0
	return v
}

// signalRead is a blocked Read's park reason.
type signalRead Signal

func (s *signalRead) String() string { return "read signal " + (*Signal)(s).name() }

// TryRead returns and clears the register if non-zero, without stalling.
func (s *Signal) TryRead(p *sim.Proc) (uint32, bool) {
	p.Advance(s.spe.params().MailboxRead)
	if s.value == 0 {
		return 0, false
	}
	v := s.value
	s.value = 0
	return v, true
}
