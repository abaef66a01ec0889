package sim

import (
	"errors"
	"fmt"
	"slices"
)

// ErrTimeout is returned by deadline-bounded primitives (Queue.GetCtl and
// the layers built on it) when the deadline passes first.
var ErrTimeout = errors.New("sim: operation timed out")

// Queue is a FIFO message queue in virtual time. Capacity 0 gives
// rendezvous semantics (a Put completes only when matched by a Get);
// capacity n > 0 buffers up to n items. It is the workhorse behind
// mailboxes, MPI matching queues and Co-Pilot request queues.
type Queue[T any] struct {
	k    *Kernel
	name string
	cap  int
	buf  []T
	puts []*qwaiter[T]
	gets []*qwaiter[T]
	high int
	// wfree recycles qwaiter records between blocking operations on this
	// queue (single-owner lifecycle: the blocking call that takes one
	// returns it before completing).
	wfree []*qwaiter[T]
}

type qwaiter[T any] struct {
	p    *Proc
	v    T
	done bool // getter: value delivered; putter: value consumed or buffered
}

// NewQueue creates a queue with the given capacity (0 = rendezvous).
func NewQueue[T any](k *Kernel, name string, capacity int) *Queue[T] {
	if capacity < 0 {
		panic("sim: negative queue capacity")
	}
	return &Queue[T]{k: k, name: name, cap: capacity}
}

// queueGet and queuePut are a blocked Get's and Put's park reasons,
// formatted only if a deadlock report reads them.
type (
	queueGet[T any] Queue[T]
	queuePut[T any] Queue[T]
)

func (q *queueGet[T]) String() string { return "get on queue " + q.name }
func (q *queuePut[T]) String() string { return "put on queue " + q.name }

// waiter takes a qwaiter from the queue's free list, or allocates one.
func (q *Queue[T]) waiter() *qwaiter[T] {
	if n := len(q.wfree); n > 0 {
		w := q.wfree[n-1]
		q.wfree[n-1] = nil
		q.wfree = q.wfree[:n-1]
		return w
	}
	return &qwaiter[T]{}
}

// popWaiter removes the head of a waiter list in place, keeping the
// backing array so the steady put/get handoff cycle never reallocates
// (the old `list = list[1:]` reslice leaked capacity one element per
// handoff). Waiter lists are short — one or two entries — so the
// copy-down is cheaper than a ring.
func popWaiter[T any](list *[]*qwaiter[T]) {
	s := *list
	copy(s, s[1:])
	s[len(s)-1] = nil
	*list = s[:len(s)-1]
}

// recycle returns a waiter whose blocking operation completed. Waiters
// abandoned by killed procs (the park panics out) are never recycled —
// they die with their owner's stack.
func (q *Queue[T]) recycle(w *qwaiter[T]) {
	var zero T
	w.p, w.v, w.done = nil, zero, false
	if len(q.wfree) < 16 {
		q.wfree = append(q.wfree, w)
	}
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.buf) }

// Cap reports the queue capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// HighWater reports the largest buffered occupancy the queue ever
// reached — the congestion watermark for mailboxes and service queues.
func (q *Queue[T]) HighWater() int { return q.high }

// bufAppend grows the buffer and tracks the occupancy high-water mark.
func (q *Queue[T]) bufAppend(v T) {
	q.buf = append(q.buf, v)
	if len(q.buf) > q.high {
		q.high = len(q.buf)
	}
}

// Put enqueues v, blocking p while the queue is full (or, for a rendezvous
// queue, until a receiver arrives): PutCtl with no deadline and no stop,
// which cannot fail.
func (q *Queue[T]) Put(p *Proc, v T) {
	q.PutCtl(p, v, 0, nil)
}

// TryPut enqueues v without blocking; it reports false if the queue is full
// and no receiver is waiting.
func (q *Queue[T]) TryPut(v T) bool {
	for len(q.gets) > 0 {
		g := q.gets[0]
		popWaiter(&q.gets)
		if g.p.Gone() {
			continue // killed mid-wait; never hand it a value
		}
		g.v, g.done = v, true
		q.k.ReadyIfParked(g.p)
		return true
	}
	if q.cap > 0 && len(q.buf) < q.cap {
		q.bufAppend(v)
		return true
	}
	return false
}

// Get dequeues an item, blocking p while the queue is empty: GetCtl with
// no deadline and no stop, which cannot fail.
func (q *Queue[T]) Get(p *Proc) T {
	v, _ := q.GetCtl(p, 0, nil)
	return v
}

// TryGet dequeues without blocking; ok is false if nothing is available.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.buf) > 0 {
		v = q.buf[0]
		copy(q.buf, q.buf[1:])
		q.buf = q.buf[:len(q.buf)-1]
		q.refill()
		return v, true
	}
	for len(q.puts) > 0 { // rendezvous, or cap exceeded by blocked putters
		w := q.puts[0]
		popWaiter(&q.puts)
		if w.p.Gone() {
			continue // a killed putter's value dies with it
		}
		w.done = true
		q.k.ReadyIfParked(w.p)
		return w.v, true
	}
	return v, false
}

// refill promotes a blocked putter into freed buffer space.
func (q *Queue[T]) refill() {
	for len(q.puts) > 0 && len(q.buf) < q.cap {
		w := q.puts[0]
		popWaiter(&q.puts)
		if w.p.Gone() {
			continue
		}
		q.bufAppend(w.v)
		w.done = true
		q.k.ReadyIfParked(w.p)
	}
}

// ctlErr is the check that abandons a bounded wait: stop's error, if
// stop is set and reports one, else ErrTimeout once the deadline (0 =
// none) has passed.
func ctlErr(p *Proc, deadline Time, stop func() error) error {
	if stop != nil {
		if err := stop(); err != nil {
			return err
		}
	}
	if deadline > 0 && p.k.now >= deadline {
		return ErrTimeout
	}
	return nil
}

// GetCtl dequeues an item, blocking p while the queue is empty, bounded by
// a virtual deadline (0 = none) and a stop check (nil = none) evaluated on
// entry and on every wake: a non-nil error from stop abandons the wait and
// is returned verbatim, and a passed deadline returns ErrTimeout. It is
// the one blocking dequeue: Get runs it with neither bound, which arms no
// timer and waits until a value arrives.
func (q *Queue[T]) GetCtl(p *Proc, deadline Time, stop func() error) (T, error) {
	var zero T
	if err := ctlErr(p, deadline, stop); err != nil {
		return zero, err
	}
	if v, ok := q.TryGet(); ok {
		return v, nil
	}
	w := q.waiter()
	w.p = p
	q.gets = append(q.gets, w)
	if err := q.await(p, w, &q.gets, (*queueGet[T])(q), deadline, stop); err != nil {
		return zero, err
	}
	v := w.v
	q.recycle(w)
	return v, nil
}

// PutCtl enqueues v, blocking p while the queue is full, bounded like
// GetCtl. An abandoned put withdraws its value, which is never delivered.
func (q *Queue[T]) PutCtl(p *Proc, v T, deadline Time, stop func() error) error {
	if err := ctlErr(p, deadline, stop); err != nil {
		return err
	}
	if q.TryPut(v) {
		return nil
	}
	w := q.waiter()
	w.p, w.v = p, v
	q.puts = append(q.puts, w)
	if err := q.await(p, w, &q.puts, (*queuePut[T])(q), deadline, stop); err != nil {
		return err
	}
	q.recycle(w)
	return nil
}

// await is the park loop of every blocking Get and Put: it parks p, which
// waits as w on list, until w is done, re-parking on spurious wakes. A
// wake that finds the wait abandoned (see ctlErr) withdraws w from list,
// recycles it and returns the error.
func (q *Queue[T]) await(p *Proc, w *qwaiter[T], list *[]*qwaiter[T], why fmt.Stringer, deadline Time, stop func() error) error {
	var tm Timer
	if deadline > 0 {
		tm = p.WakeAt(deadline)
	}
	for !w.done {
		p.ParkFor(why)
		if w.done {
			break
		}
		if err := ctlErr(p, deadline, stop); err != nil {
			if i := slices.Index(*list, w); i >= 0 {
				*list = slices.Delete(*list, i, i+1)
			}
			tm.Cancel()
			q.recycle(w)
			return err
		}
	}
	tm.Cancel()
	return nil
}

// Semaphore is a counting semaphore with FIFO wakeup order.
type Semaphore struct {
	k       *Kernel
	name    string
	count   int
	waiters []*semWaiter
}

type semWaiter struct {
	p       *Proc
	n       int
	granted bool
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(k *Kernel, name string, count int) *Semaphore {
	return &Semaphore{k: k, name: name, count: count}
}

// Count reports the currently available units.
func (s *Semaphore) Count() int { return s.count }

// Acquire takes n units, blocking p until they are available. Waiters are
// served strictly in FIFO order (no barging), so Acquire is starvation-free.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if len(s.waiters) == 0 && s.count >= n {
		s.count -= n
		return
	}
	w := &semWaiter{p: p, n: n}
	s.waiters = append(s.waiters, w)
	for !w.granted {
		p.park(fmt.Sprintf("acquire(%d) on semaphore %s", n, s.name))
	}
}

// Release returns n units and wakes eligible waiters in order.
func (s *Semaphore) Release(n int) {
	s.count += n
	for len(s.waiters) > 0 && s.count >= s.waiters[0].n {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.count -= w.n
		w.granted = true
		s.k.ReadyIfParked(w.p)
	}
}

// Event is a one-shot broadcast: procs Wait until Fire, after which Wait
// returns immediately forever.
type Event struct {
	k       *Kernel
	name    string
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unfired event.
func NewEvent(k *Kernel, name string) *Event {
	return &Event{k: k, name: name}
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Wait blocks p until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	for !e.fired {
		p.park(fmt.Sprintf("wait on event %s", e.name))
	}
}

// Fire releases all current and future waiters. Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, p := range e.waiters {
		e.k.ReadyIfParked(p)
	}
	e.waiters = nil
}
