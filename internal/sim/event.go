package sim

import (
	"container/heap"
	"slices"
	"sync/atomic"
)

// event is a scheduled kernel action: either waking a parked proc or
// running a callback inside the scheduler. Its fields are ordered so it
// packs into 48 bytes, an exact allocation size class.
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
	// Remove takes ev out of the queue and reports whether it was queued.
	Remove(ev *event) bool
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

func (q *heapQueue) Remove(ev *event) bool {
	i := slices.Index(q.h, ev)
	if i < 0 {
		return false
	}
	heap.Remove(&q.h, i)
	return true
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
// The handle is a value, so a bounded wait that arms and cancels a
// deadline allocates nothing.
func (k *Kernel) AfterTimer(d Time, fn func()) Timer {
	ev := k.schedule(k.now+d, nil, fn)
	return Timer{k: k, ev: ev, gen: ev.gen}
}

// Cancel takes the timer's event out of the queue and recycles it, so a
// cancelled timer neither runs nor advances the clock. It is a no-op once
// the timer has fired, after a second Cancel, and after shutdown cleared
// the queue.
func (t *Timer) Cancel() {
	ev := t.ev
	if ev == nil {
		return
	}
	t.ev = nil
	// A fired timer's event was recycled (its gen bumped), possibly into
	// a new role; a cleared queue no longer holds it.
	if ev.gen != t.gen || !t.k.pq.Remove(ev) {
		return
	}
	if t.k.host != nil {
		t.k.host.HeapPop()
		t.k.host.CancelPurge()
	}
	t.k.freeEvent(ev)
}
