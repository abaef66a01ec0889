package sim

import (
	"runtime"
	"testing"
)

// BenchmarkEventThroughput measures raw scheduler speed: one proc
// advancing b.N times (one heap event each).
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHandoff measures the rendezvous fast path: producer and
// consumer alternating through an unbuffered queue.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0)
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitch measures the goroutine ping-pong cost of the
// cooperative scheduler with many procs at one timestamp.
func BenchmarkContextSwitch(b *testing.B) {
	k := NewKernel(1)
	const procs = 64
	each := b.N/procs + 1
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < each; j++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeapPushPop measures the event queue alone: schedule b.N
// staggered callbacks, then drain them in timestamp order. The /calendar
// and /heap variants run the identical workload on each queue kind — the
// `make bench-kernel` comparison pair.
func BenchmarkHeapPushPop(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchPushPop(b, QueueCalendar) })
	b.Run("heap", func(b *testing.B) { benchPushPop(b, QueueHeap) })
}

func benchPushPop(b *testing.B, kind QueueKind) {
	k := NewKernelQueue(1, kind)
	for i := 0; i < b.N; i++ {
		// Staggered deadlines exercise real resort work rather than the
		// sorted-append fast path; the horizon grows with b.N so event
		// density per unit of virtual time stays constant — the shape a
		// simulator generates — instead of piling every event the bench
		// harness adds onto the same thousand timestamps.
		at := Time(i/1000)*Millisecond + Time((i*7919)%1000)*Microsecond
		k.After(at, func() {})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueChurn measures steady-state scheduling — a bounded
// population of in-flight timers with constant arm/fire churn, the shape
// Co-Pilot scan loops generate — on both queue kinds.
func BenchmarkQueueChurn(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchChurn(b, QueueCalendar) })
	b.Run("heap", func(b *testing.B) { benchChurn(b, QueueHeap) })
}

func benchChurn(b *testing.B, kind QueueKind) {
	k := NewKernelQueue(1, kind)
	const fanout = 256
	n := b.N
	var arm func()
	fired := 0
	arm = func() {
		fired++
		if fired < n {
			k.After(Time(((fired*7919)%997)+1)*Microsecond, arm)
		}
	}
	for i := 0; i < fanout && i < n; i++ {
		k.After(Time(((i*6271)%997)+1)*Microsecond, arm)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerCancel measures the cancelled-timer path: each op arms
// a timer and cancels it before it fires, which takes its event out of
// the queue at once, so no callback ever runs.
func BenchmarkTimerCancel(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchCancel(b, QueueCalendar) })
	b.Run("heap", func(b *testing.B) { benchCancel(b, QueueHeap) })
}

func benchCancel(b *testing.B, kind QueueKind) {
	k := NewKernelQueue(1, kind)
	fn := func() { b.Error("cancelled timer fired") }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.AfterTimer(Time(i)*Microsecond, fn)
		tm.Cancel()
	}
	b.StopTimer()
	if n := k.pq.Len(); n != 0 {
		b.Fatalf("%d events queued after every timer was cancelled", n)
	}
}

// BenchmarkDeadlineChurn measures the queue shape Try* ops give it: one
// proc arms a deadline per op and cancels it when the op completes, while
// liveTimers long timers stay queued. Each cancel takes its deadline out
// of the queue at once, so the population moves by one or two per op;
// mallocs/op shows whether the calendar resizes (and so allocates) as it
// does. BenchmarkTimerCancel arms and cancels with nothing else queued.
func BenchmarkDeadlineChurn(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchDeadlineChurn(b, QueueCalendar) })
	b.Run("heap", func(b *testing.B) { benchDeadlineChurn(b, QueueHeap) })
}

func benchDeadlineChurn(b *testing.B, kind QueueKind) {
	const liveTimers = 16
	k := NewKernelQueue(1, kind)
	for i := 0; i < liveTimers; i++ {
		k.After(Time(i+1)*Second, func() {})
	}
	k.Spawn("ops", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			deadline := p.WakeAt(p.Now() + 200*Millisecond)
			p.Advance(Microsecond)
			deadline.Cancel()
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	// Resizing churn would cost under one allocation per op, which
	// -benchmem's whole-number allocs/op prints as 0.
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "mallocs/op")
}

// BenchmarkEventDispatch measures the full dispatch cycle — heap pop,
// clock advance, proc wake, park — for a single proc self-scheduling.
func BenchmarkEventDispatch(b *testing.B) {
	benchDispatch(b, nil)
}

// BenchmarkEventDispatchProbed is BenchmarkEventDispatch with a host
// probe attached; the delta against the unprobed run is the
// instrumentation's whole per-event cost (the <2% overhead budget).
func BenchmarkEventDispatchProbed(b *testing.B) {
	benchDispatch(b, countingProbe{n: new(int)})
}

func benchDispatch(b *testing.B, probe HostProbe) {
	k := NewKernel(1)
	if probe != nil {
		k.SetHostProbe(probe)
	}
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// countingProbe is the cheapest possible HostProbe — the benchmark pair
// above isolates the kernel's hook-call overhead from any profiler logic.
type countingProbe struct{ n *int }

func (c countingProbe) Event()         { *c.n++ }
func (c countingProbe) HeapPush(int)   {}
func (c countingProbe) HeapPop()       {}
func (c countingProbe) CancelPurge()   {}
func (c countingProbe) SliceStart(int) {}
func (c countingProbe) SliceEnd(int)   {}
