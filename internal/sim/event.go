package sim

import (
	"container/heap"
	"sync/atomic"
)

// event is a scheduled kernel action: either waking a parked proc or
// running a callback inside the scheduler.
type event struct {
	at  Time
	seq uint64 // tie-breaker: insertion order, for determinism
	// gen is the pool generation. It increments every time the event
	// object is recycled, so a stale Timer handle (cancelled after its
	// timer fired and the event was reused) can detect it points at a
	// different logical event and turn into a no-op.
	gen   uint32
	p     *Proc  // proc to wake, or nil
	epoch uint64 // p's wake epoch at scheduling; stale events are skipped
	fn    func() // callback to run in the scheduler, or nil
	// cancelled events are discarded without running and without
	// advancing the clock — a cancelled timeout must not extend a run's
	// final virtual time. They are purged lazily when they surface at the
	// head of the queue, or in bulk when they outnumber half of the live
	// entries (Kernel.noteCancel).
	cancelled bool
}

// eventLess is the kernel's total order: timestamp, then insertion
// sequence, so events due at one instant run in the order they were
// scheduled.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the scheduler's priority queue: Pop removes and returns
// the eventLess-minimum, Peek returns it without removing. Two
// implementations exist — calQueue (calendar queue, the default) and
// heapQueue (the original container/heap queue, retained behind
// QueueHeap for differential testing) — and both yield the exact same
// pop order, so runs are bit-for-bit identical under either.
type eventQueue interface {
	Push(*event)
	Pop() *event
	Peek() *event
	Len() int
	// Compact removes every cancelled event, calling onPurge for each.
	Compact(onPurge func(*event))
	// Clear drops all events (kernel shutdown).
	Clear()
}

// QueueKind selects the event-queue implementation behind a kernel.
type QueueKind int32

const (
	// QueueCalendar is the calendar queue (O(1) amortized push/pop for
	// the bursty short-horizon timer mix the simulator generates).
	QueueCalendar QueueKind = iota
	// QueueHeap is the original container/heap binary heap, kept for
	// differential testing and as a fallback.
	QueueHeap
)

// defaultQueueKind is what NewKernel uses; atomic so tests can flip it
// while parallel (-race) suites run.
var defaultQueueKind atomic.Int32

// DefaultQueueKind reports the queue implementation NewKernel selects.
func DefaultQueueKind() QueueKind { return QueueKind(defaultQueueKind.Load()) }

// SetDefaultQueueKind changes the queue implementation NewKernel selects
// and returns the previous one. Differential suites flip it around a run
// to execute the identical workload on the other queue.
func SetDefaultQueueKind(kind QueueKind) QueueKind {
	return QueueKind(defaultQueueKind.Swap(int32(kind)))
}

func newEventQueue(kind QueueKind) eventQueue {
	if kind == QueueHeap {
		return &heapQueue{}
	}
	return newCalQueue()
}

// eventHeap is a min-heap in eventLess order (the QueueHeap backend).
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue adapts eventHeap to the eventQueue interface.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) Push(ev *event) { heap.Push(&q.h, ev) }
func (q *heapQueue) Len() int       { return len(q.h) }

func (q *heapQueue) Pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) Peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) Compact(onPurge func(*event)) {
	kept := q.h[:0]
	for _, ev := range q.h {
		if ev.cancelled {
			onPurge(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = kept
	heap.Init(&q.h)
}

func (q *heapQueue) Clear() { q.h = nil }

// maxFreeEvents bounds the per-kernel event free list so a burst (a huge
// fan-out of timers) does not pin its high-water mark of event objects
// forever.
const maxFreeEvents = 1 << 14

// newEvent takes an event from the kernel's free list, or allocates one.
// Events never migrate between kernels: a Timer handle may touch its
// event's gen field from this kernel's execution context at any later
// point, so recycling through a cross-kernel pool would race between
// kernels running on concurrent goroutines (kiloscale replicas).
func (k *Kernel) newEvent() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{}
}

// freeEvent recycles a popped event. Bumping gen invalidates any Timer
// handle still pointing here.
func (k *Kernel) freeEvent(ev *event) {
	ev.gen++
	ev.p = nil
	ev.fn = nil
	ev.epoch = 0
	ev.cancelled = false
	if len(k.free) < maxFreeEvents {
		k.free = append(k.free, ev)
	}
}

func (k *Kernel) schedule(at Time, p *Proc, fn func()) *event {
	if at < k.now {
		at = k.now
	}
	k.seq++
	ev := k.newEvent()
	ev.at, ev.seq, ev.p, ev.fn = at, k.seq, p, fn
	if p != nil {
		ev.epoch = p.epoch
	}
	k.pq.Push(ev)
	if k.host != nil {
		k.host.HeapPush(k.pq.Len())
	}
	return ev
}

// After schedules fn to run inside the scheduler after delay d. It must be
// called from scheduler context or before Run; procs should use Advance.
func (k *Kernel) After(d Time, fn func()) {
	k.schedule(k.now+d, nil, fn)
}

// Timer is a cancellable scheduled callback. Timeout/retransmit machinery
// needs cancellation: an armed-but-never-fired deadline must leave no
// trace in the virtual timeline once the guarded operation completes.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint32
}

// AfterTimer is After returning a handle that can cancel the callback.
func (k *Kernel) AfterTimer(d Time, fn func()) *Timer {
	t := k.afterTimer(d, fn)
	return &t
}

// afterTimer is AfterTimer by value, for internal callers (GetCtl/PutCtl)
// that arm and cancel a deadline on every bounded operation and must not
// allocate a Timer each time.
func (k *Kernel) afterTimer(d Time, fn func()) Timer {
	ev := k.schedule(k.now+d, nil, fn)
	return Timer{k: k, ev: ev, gen: ev.gen}
}

// Cancel discards the timer. The event stays queued but is purged without
// running or advancing the clock — lazily when it reaches the head, or in
// bulk once cancelled entries outnumber half the live ones. Safe to call
// more than once and after the timer fired.
func (t *Timer) Cancel() {
	if t == nil || t.ev == nil {
		return
	}
	ev := t.ev
	t.ev = nil
	if ev.gen != t.gen || ev.cancelled {
		// The timer already fired (the event was recycled, possibly into
		// a new role) or was already cancelled.
		return
	}
	ev.cancelled = true
	ev.fn = nil
	t.k.noteCancel()
}
