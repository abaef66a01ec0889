package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
)

type procState int

const (
	procNew procState = iota
	procReady
	procRunning
	procParked
	procDone
)

// Proc is a simulated thread of control. A proc's body runs on its own
// goroutine but the kernel guarantees only one proc executes at a time;
// between kernel primitives a proc runs instantaneously in virtual time.
type Proc struct {
	k          *Kernel
	id         int
	name       string
	wake       chan struct{}
	state      procState
	waitReason string
	// waitWhy, when set, stands in for waitReason: a ParkFor reason,
	// formatted only if a deadlock report reads it.
	waitWhy fmt.Stringer
	// waitTarget qualifies waitReason for Advance parks ("advancing to
	// <target>"): the formatted string is built lazily in deadlock
	// reports, keeping the Advance hot path allocation-free.
	waitTarget Time
	rng        *rand.Rand
	// readySelf is the cached "wake me if parked" callback handed to
	// deadline timers, built once per proc instead of once per bounded
	// operation.
	readySelf func()
	// epoch increments on every resume; wake events remember the epoch
	// they were scheduled under so stale wakes (the proc was resumed by
	// another source meanwhile) are discarded.
	epoch uint64
	// killed marks a proc condemned by fault injection: the next kernel
	// primitive it touches unwinds its stack (deferred cleanup still runs).
	killed bool
}

// shutdownSentinel unwinds a proc's stack during kernel shutdown.
type shutdownSentinel struct{}

// killSentinel unwinds one killed proc's stack; unlike shutdownSentinel it
// does not abort the simulation — the other procs keep running.
type killSentinel struct{}

func (p *Proc) run(fn func(p *Proc)) {
	<-p.wake // first activation, scheduled by Spawn
	defer func() {
		p.state = procDone
		p.k.live--
		if r := recover(); r != nil {
			_, isShutdown := r.(shutdownSentinel)
			_, isKill := r.(killSentinel)
			if !isShutdown && !isKill {
				// Real panic in simulated code: abort the simulation and
				// surface the panic (with stack) through Run's error.
				p.k.Abort(fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack()))
			}
		}
		p.k.ctl <- struct{}{}
	}()
	if p.k.shutdown || p.killed {
		return
	}
	p.state = procRunning
	fn(p)
}

// Name reports the proc's name.
func (p *Proc) Name() string { return p.name }

// ID reports the proc's unique id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Rand returns a per-proc deterministic random source, lazily seeded from
// the kernel seed and the proc id.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.k.rng.Int63() ^ int64(p.id)<<32))
	}
	return p.rng
}

// readyCB returns the proc's cached self-wake callback for deadline
// timers: equivalent to func() { p.k.ReadyIfParked(p) } but allocated
// once per proc.
func (p *Proc) readyCB() func() {
	if p.readySelf == nil {
		p.readySelf = func() { p.k.ReadyIfParked(p) }
	}
	return p.readySelf
}

// WakeAt arms a timer that readies p at virtual time at if p is parked
// then: the deadline of a bounded wait, cancelled when the wait ends. The
// handle is a value, so a bounded operation that arms and cancels one
// allocates nothing.
func (p *Proc) WakeAt(at Time) Timer {
	return p.k.AfterTimer(at-p.k.now, p.readyCB())
}

// checkRunning panics if a kernel primitive is invoked from a goroutine
// other than the currently running proc — the classic way to corrupt a
// cooperative simulation.
func (p *Proc) checkRunning() {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: primitive called on proc %q which is not the running proc", p.name))
	}
}

// park blocks the proc until something calls Kernel.ready(p). reason is
// surfaced in deadlock reports.
func (p *Proc) park(reason string) {
	p.checkRunning()
	p.state = procParked
	p.waitReason = reason
	p.k.ctl <- struct{}{}
	<-p.wake
	p.waitReason = ""
	if p.k.shutdown {
		panic(shutdownSentinel{})
	}
	if p.killed {
		panic(killSentinel{})
	}
}

// Park blocks the proc until another component calls Kernel.Ready on it.
// It is the extension point synchronization layers (MPI matching, Pilot
// channels) build on; reason appears in deadlock reports.
func (p *Proc) Park(reason string) { p.park(reason) }

// ParkFor is Park for a reason that takes formatting: why.String() runs
// only if a deadlock report reads it, so a wait on a hot path builds no
// text. why must describe the wait until the proc resumes.
func (p *Proc) ParkFor(why fmt.Stringer) {
	p.waitWhy = why
	p.park("")
	p.waitWhy = nil
}

// Advance blocks the proc for duration d of virtual time. It models
// computation or a fixed hardware latency. A spurious wake from another
// component (e.g. an asynchronous completion poking the proc) re-parks
// until the full duration has elapsed, so timing is never shortened.
func (p *Proc) Advance(d Time) {
	p.checkRunning()
	if d < 0 {
		panic("sim: negative Advance")
	}
	target := p.k.now + d
	for p.k.now < target || d == 0 {
		d = -1 // a zero advance still yields exactly once
		p.state = procParked
		p.waitReason = "advancing"
		p.waitTarget = target
		p.k.schedule(target, p, nil)
		p.k.ctl <- struct{}{}
		<-p.wake
		p.waitReason = ""
		p.waitTarget = 0
		if p.k.shutdown {
			panic(shutdownSentinel{})
		}
		if p.killed {
			panic(killSentinel{})
		}
	}
}

// AdvanceTo blocks until virtual time t (no-op if t is in the past).
func (p *Proc) AdvanceTo(t Time) {
	if t > p.k.now {
		p.Advance(t - p.k.now)
	}
}

// Yield reschedules the proc at the current instant, letting other procs
// scheduled for the same time run first.
func (p *Proc) Yield() { p.Advance(0) }

// Fatalf aborts the whole simulation with a formatted error. It does not
// return.
func (p *Proc) Fatalf(format string, args ...any) {
	p.checkRunning()
	p.k.Abort(fmt.Errorf(format, args...))
	panic(shutdownSentinel{})
}

// Kill condemns the proc: if parked it is woken immediately, and the next
// kernel primitive it touches unwinds its stack (running its deferred
// cleanup) without aborting the simulation. Fault injection uses this to
// crash one simulated process while the rest of the application keeps
// going. Safe from scheduler context; killing a finished proc is a no-op.
func (p *Proc) Kill() {
	if p.state == procDone || p.killed {
		return
	}
	p.killed = true
	p.k.ReadyIfParked(p)
}

// Killed reports whether the proc was condemned by Kill.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the proc has finished (normally or by unwinding).
func (p *Proc) Done() bool { return p.state == procDone }

// Gone reports whether the proc can no longer consume wakeups or values:
// finished, or killed and about to unwind. Queues use it to skip dead
// waiters.
func (p *Proc) Gone() bool { return p.state == procDone || p.killed }
