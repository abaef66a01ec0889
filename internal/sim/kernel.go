package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kernel owns the virtual clock, the event queue and all procs. All kernel
// state is confined by the execution protocol: exactly one goroutine (the
// scheduler or the single running proc) touches it at a time, so no locks
// are needed and runs are deterministic.
type Kernel struct {
	now   Time
	seq   uint64
	pq    eventQueue
	free  []*event      // recycled event objects, never shared across kernels
	ctl   chan struct{} // running proc -> scheduler: "I parked or exited"
	rng   *rand.Rand
	trac  Tracer
	host  HostProbe // wall-clock instrumentation; nil disables
	clock ClockHook // observes virtual-clock advances; nil disables

	// nCancelled counts cancelled events still sitting in the queue; when
	// they outnumber half the live entries the queue is compacted.
	nCancelled int

	procs    []*Proc
	live     int // procs spawned and not yet finished
	running  *Proc
	shutdown bool
	abortErr error
	nextID   int
}

// Tracer receives a line for every significant kernel action. Nil disables
// tracing.
type Tracer func(at Time, format string, args ...any)

// HostProbe observes the kernel's host-side (wall-clock) cost: event and
// heap-operation counts plus the execution slices the scheduler hands out.
// Every callback is pure host bookkeeping — a probe must not touch the
// virtual timeline, and the kernel guarantees the calls are serialized by
// the execution protocol (scheduler and running proc alternate), so probes
// need no locking. Nil disables all probing; the only cost left on the
// event loop is a nil check per operation.
//
// A "slice" is one uninterrupted stretch of host execution dispatched by
// the scheduler: either a scheduler callback (SliceStart(-1)) or a proc
// running from resume to its next park/exit (SliceStart(proc id)). Slices
// never nest.
type HostProbe interface {
	// Event fires once per dispatched event (callback or proc wake).
	Event()
	// HeapPush fires after an event is pushed; depth is the new heap size.
	HeapPush(depth int)
	// HeapPop fires after any event is popped (including cancelled ones).
	HeapPop()
	// CancelPurge fires when a cancelled timer is discarded unexecuted.
	CancelPurge()
	// SliceStart/SliceEnd bracket one host execution slice; proc is the
	// running proc's id, or -1 for a scheduler callback.
	SliceStart(proc int)
	SliceEnd(proc int)
}

// NewKernel returns a kernel with the virtual clock at zero. The seed feeds
// the kernel RNG used by procs; identical seeds give identical runs. The
// event queue is the process-wide default kind (see SetDefaultQueueKind).
func NewKernel(seed int64) *Kernel {
	return NewKernelQueue(seed, DefaultQueueKind())
}

// NewKernelQueue is NewKernel with an explicit event-queue implementation,
// for differential testing: both kinds produce the identical pop order, so
// same-seed runs are bit-for-bit equal under either.
func NewKernelQueue(seed int64, kind QueueKind) *Kernel {
	return &Kernel{
		pq:  newEventQueue(kind),
		ctl: make(chan struct{}),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// noteCancel accounts one newly cancelled in-queue event and compacts the
// queue once cancelled entries exceed half of the live ones (3c > len ⇔
// c > (len-c)/2), so heavy GetTimeout churn cannot bloat the queue between
// the lazy at-the-head purges.
func (k *Kernel) noteCancel() {
	k.nCancelled++
	if n := k.pq.Len(); n >= 64 && 3*k.nCancelled > n {
		k.compact()
	}
}

func (k *Kernel) compact() {
	k.pq.Compact(func(ev *event) {
		if k.host != nil {
			k.host.HeapPop()
			k.host.CancelPurge()
		}
		k.freeEvent(ev)
	})
	k.nCancelled = 0
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. It must only be
// used from scheduler or running-proc context.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// SetTracer installs a trace callback.
func (k *Kernel) SetTracer(t Tracer) { k.trac = t }

// SetHostProbe attaches a host-cost probe (nil detaches). Attach before
// Run; the probe observes wall-clock cost only and cannot perturb the
// virtual timeline, so instrumented runs stay bit-for-bit deterministic.
func (k *Kernel) SetHostProbe(h HostProbe) { k.host = h }

// ClockHook observes every virtual-clock advance. It fires after the
// clock moves to a popped event's timestamp but before that event
// dispatches, so the hook sees exactly the state produced by all events
// strictly before the new time — the contract the timeline recorder's
// windowing relies on. A hook must only read: it must never schedule
// events or touch procs, or it would perturb the deterministic timeline.
type ClockHook func(now Time)

// SetClockHook attaches a clock-advance observer (nil detaches). Attach
// before Run. The only event-loop cost when detached is a nil check per
// dispatched event, mirroring SetHostProbe.
func (k *Kernel) SetClockHook(h ClockHook) { k.clock = h }

func (k *Kernel) tracef(format string, args ...any) {
	if k.trac != nil {
		k.trac(k.now, format, args...)
	}
}

// Spawn creates a proc named name running fn and schedules its first
// activation after delay. It may be called before Run or from a running
// proc (e.g. a parent process launching a child).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAfter(name, 0, fn)
}

// SpawnAfter is Spawn with an initial activation delay.
func (k *Kernel) SpawnAfter(name string, delay Time, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{
		k:    k,
		id:   k.nextID,
		name: name,
		wake: make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	k.live++
	go p.run(fn)
	k.schedule(k.now+delay, p, nil)
	return p
}

// ready schedules p to resume at the current time. It is the wake-side half
// of every synchronization primitive.
func (k *Kernel) ready(p *Proc) {
	if p.state != procParked {
		panic(fmt.Sprintf("sim: ready(%s) but proc is not parked (state %d)", p.name, p.state))
	}
	p.state = procReady
	k.schedule(k.now, p, nil)
}

// Ready schedules a parked proc to resume at the current time. It is the
// wake-side counterpart of Proc.Park and panics if p is not parked.
func (k *Kernel) Ready(p *Proc) { k.ready(p) }

// ReadyIfParked is Ready, but a no-op when p is currently running or
// already scheduled — for completion paths that may fire either before or
// after the interested proc parks.
func (k *Kernel) ReadyIfParked(p *Proc) bool {
	if p.state == procParked {
		k.ready(p)
		return true
	}
	return false
}

// Abort stops the simulation with err. The current Run call returns err
// after unwinding every remaining proc.
func (k *Kernel) Abort(err error) {
	if k.abortErr == nil {
		k.abortErr = err
	}
	k.shutdown = true
}

// Run executes events until no proc can make progress. It returns nil when
// every proc finished, ErrDeadlock when procs remain parked with an empty
// event queue, or the Abort error.
func (k *Kernel) Run() error { return k.RunUntil(Forever) }

// RunUntil is Run bounded by a virtual deadline. Reaching the deadline with
// procs still live is not an error; the clock is left at the deadline.
func (k *Kernel) RunUntil(deadline Time) error {
	if k.running != nil {
		panic("sim: RunUntil called from proc context")
	}
	for !k.shutdown {
		ev := k.pq.Peek()
		if ev == nil {
			break
		}
		if ev.cancelled {
			// Purged before the deadline check and before the clock moves:
			// a cancelled timer must not stretch the run's final time.
			k.pq.Pop()
			if k.nCancelled > 0 {
				k.nCancelled--
			}
			if k.host != nil {
				k.host.HeapPop()
				k.host.CancelPurge()
			}
			k.freeEvent(ev)
			continue
		}
		if ev.at > deadline {
			k.now = deadline
			if k.clock != nil {
				k.clock(k.now)
			}
			return nil
		}
		k.pq.Pop()
		k.now = ev.at
		if k.clock != nil {
			k.clock(k.now)
		}
		if k.host != nil {
			k.host.HeapPop()
			k.host.Event()
		}
		switch {
		case ev.fn != nil:
			fn := ev.fn
			// Recycle before running: if fn cancels its own (already
			// fired) timer, the bumped generation makes that a no-op
			// instead of a miscount.
			k.freeEvent(ev)
			if k.host != nil {
				k.host.SliceStart(-1)
				fn()
				k.host.SliceEnd(-1)
			} else {
				fn()
			}
		case ev.p != nil:
			p, epoch := ev.p, ev.epoch
			k.freeEvent(ev)
			if epoch == p.epoch {
				k.resume(p)
			}
		default:
			k.freeEvent(ev)
		}
	}
	if k.shutdown {
		k.drain()
		return k.abortErr
	}
	if k.live > 0 {
		err := k.deadlockError()
		k.Abort(err)
		k.drain()
		return err
	}
	return nil
}

// resume hands control to p and blocks until p parks or exits. A wake
// event whose epoch no longer matches (the proc was woken by something
// else and re-parked, or already finished) is stale and skipped.
func (k *Kernel) resume(p *Proc) {
	if p.state == procDone {
		return
	}
	p.epoch++
	p.state = procRunning
	k.running = p
	if k.host != nil {
		k.host.SliceStart(p.id)
	}
	p.wake <- struct{}{}
	<-k.ctl
	if k.host != nil {
		k.host.SliceEnd(p.id)
	}
	k.running = nil
}

// drain unwinds every parked proc after shutdown so no goroutines leak.
func (k *Kernel) drain() {
	for {
		progressed := false
		for _, p := range k.procs {
			if p.state == procParked || p.state == procReady {
				k.resume(p) // park() observes shutdown and panics out
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	k.pq.Clear()
	k.nCancelled = 0
}

// ErrDeadlock is wrapped by the error Run returns when the simulation
// quiesces with live procs.
type ErrDeadlock struct {
	At      Time
	Blocked []BlockedProc
}

// BlockedProc describes one stuck proc in an ErrDeadlock.
type BlockedProc struct {
	Name   string
	Reason string
}

func (e *ErrDeadlock) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%s: %d proc(s) blocked:", e.At, len(e.Blocked))
	for _, bp := range e.Blocked {
		fmt.Fprintf(&b, "\n  %s: %s", bp.Name, bp.Reason)
	}
	return b.String()
}

func (k *Kernel) deadlockError() error {
	e := &ErrDeadlock{At: k.now}
	for _, p := range k.procs {
		if p.state == procParked {
			reason := p.waitReason
			if reason == "advancing" && p.waitTarget != 0 {
				// Formatted lazily here so the Advance hot path does not
				// build the string on every park.
				reason = fmt.Sprintf("advancing to %s", p.waitTarget)
			}
			e.Blocked = append(e.Blocked, BlockedProc{Name: p.name, Reason: reason})
		}
	}
	sort.Slice(e.Blocked, func(i, j int) bool { return e.Blocked[i].Name < e.Blocked[j].Name })
	return e
}

// Live reports how many procs have been spawned and not yet finished.
func (k *Kernel) Live() int { return k.live }
