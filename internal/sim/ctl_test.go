package sim

import (
	"errors"
	"testing"
)

// TestGetCtlDeliveryBeatsDeadline: a value arriving before the deadline is
// delivered normally, and the cancelled deadline timer must not extend the
// virtual clock past the delivery instant.
func TestGetCtlDeliveryBeatsDeadline(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 1)
	var got int
	var gotErr error
	var at Time
	k.Spawn("getter", func(p *Proc) {
		got, gotErr = q.GetCtl(p, 10*Millisecond, nil)
		at = p.Now()
	})
	k.Spawn("putter", func(p *Proc) {
		p.Advance(5 * Microsecond)
		q.Put(p, 7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil || got != 7 {
		t.Fatalf("got %d, err %v", got, gotErr)
	}
	if at != 5*Microsecond {
		t.Fatalf("delivered at %s, want 5us", at)
	}
	// The 10ms deadline timer was cancelled; it must not have dragged the
	// clock to the deadline.
	if k.Now() != 5*Microsecond {
		t.Fatalf("cancelled deadline timer extended the clock to %s", k.Now())
	}
}

// TestGetCtlTimeout: with no producer, GetCtl returns ErrTimeout at
// exactly the deadline, and the waiter is pruned (a later TryPut finds no
// stale getter to hand the value to).
func TestGetCtlTimeout(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 1)
	var gotErr error
	var at Time
	k.Spawn("getter", func(p *Proc) {
		_, gotErr = q.GetCtl(p, 3*Microsecond, nil)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if at != 3*Microsecond {
		t.Fatalf("timed out at %s, want exactly 3us", at)
	}
	if !q.TryPut(9) {
		t.Fatal("TryPut refused on an empty buffered queue")
	}
	if q.Len() != 1 {
		t.Fatalf("value went to a pruned waiter; Len = %d, want 1 (buffered)", q.Len())
	}
}

// TestGetCtlZeroDeadline: GetCtl with deadline 0 and no stop, the form
// Get runs, never times out however long it waits.
func TestGetCtlZeroDeadline(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0) // rendezvous
	var got int
	k.Spawn("getter", func(p *Proc) {
		v, err := q.GetCtl(p, 0, nil)
		if err != nil {
			p.Fatalf("GetCtl(0): %v", err)
		}
		got = v
	})
	k.Spawn("putter", func(p *Proc) {
		p.Advance(2 * Second) // far beyond any plausible accidental deadline
		q.Put(p, 11)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("got %d", got)
	}
}

// TestPutCtlTimeoutWithdraws: an abandoned PutCtl withdraws its value — a
// later getter must not receive it.
func TestPutCtlTimeoutWithdraws(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0) // rendezvous: put blocks until matched
	var putErr error
	k.Spawn("putter", func(p *Proc) {
		putErr = q.PutCtl(p, 13, 2*Microsecond, nil)
	})
	var ok bool
	k.Spawn("getter", func(p *Proc) {
		p.Advance(10 * Microsecond) // arrive well after the put gave up
		_, ok = q.TryGet()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(putErr, ErrTimeout) {
		t.Fatalf("put err = %v, want ErrTimeout", putErr)
	}
	if ok {
		t.Fatal("late getter received a value withdrawn by PutCtl's timeout")
	}
}

// TestCtlStopPredicate: a stop error is returned verbatim on the next
// wake, even with no deadline armed.
func TestCtlStopPredicate(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 1)
	boom := errors.New("channel poisoned")
	var armed bool
	stop := func() error {
		if armed {
			return boom
		}
		return nil
	}
	var gotErr error
	var getter *Proc
	getter = k.Spawn("getter", func(p *Proc) {
		_, gotErr = q.GetCtl(p, 0, stop)
	})
	k.Spawn("poisoner", func(p *Proc) {
		p.Advance(4 * Microsecond)
		armed = true
		k.ReadyIfParked(getter)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, boom) {
		t.Fatalf("err = %v, want the stop error", gotErr)
	}
}

// TestTimerCancelNoClockExtension: a cancelled timer must neither fire nor
// drag the virtual clock to its expiry.
func TestTimerCancelNoClockExtension(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.AfterTimer(1*Second, func() { fired = true })
	k.Spawn("p", func(p *Proc) {
		p.Advance(3 * Microsecond)
		tm.Cancel()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if k.Now() != 3*Microsecond {
		t.Fatalf("clock ran to %s after cancel, want 3us", k.Now())
	}
}

// TestStaleTimerCancelIsNoOp: cancelling a timer that already fired, or
// one whose queue shutdown cleared, touches nothing — not the event its
// object was recycled into, not the free list, not the probe — on both
// queue kinds.
func TestStaleTimerCancelIsNoOp(t *testing.T) {
	for _, kind := range []QueueKind{QueueCalendar, QueueHeap} {
		k := NewKernelQueue(1, kind)
		probe := &tallyProbe{}
		k.SetHostProbe(probe)
		fired := 0
		var first, second, late Timer
		first = k.AfterTimer(Microsecond, func() {
			fired++
			// first's event went back to the free list before this ran;
			// second takes the object over, and first's handle is stale.
			reused := first.ev
			second = k.AfterTimer(Microsecond, func() { fired++ })
			if second.ev != reused {
				t.Error("the fired event was not reused; nothing stale to cancel")
			}
			first.Cancel()
		})
		k.Spawn("p", func(p *Proc) {
			p.Advance(5 * Microsecond)
			late = k.AfterTimer(3600*Second, func() { t.Error("timer fired after shutdown") })
			k.Abort(errors.New("stop"))
			p.Advance(Microsecond)
		})
		if err := k.Run(); err == nil || err.Error() != "stop" {
			t.Fatalf("kind %d: Run = %v, want the abort error", kind, err)
		}
		if fired != 2 {
			t.Fatalf("kind %d: %d timers fired, want 2 (a stale Cancel removed a live timer)", kind, fired)
		}
		free := len(k.free)
		late.Cancel()
		second.Cancel()
		if len(k.free) != free || probe.cancelPurge != 0 || k.pq.Len() != 0 {
			t.Fatalf("kind %d: stale cancels changed the kernel: free %d -> %d, %d purges, %d queued",
				kind, free, len(k.free), probe.cancelPurge, k.pq.Len())
		}
	}
}

// TestKillUnwindsParkedProc: Kill wakes a parked proc, unwinds its stack
// through its deferred cleanup, and the rest of the simulation continues.
func TestKillUnwindsParkedProc(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0)
	cleaned := false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() {
			cleaned = true
			if r := recover(); r != nil {
				panic(r) // the kill sentinel must keep unwinding
			}
		}()
		q.Get(p) // parks forever; no putter exists
	})
	var after Time
	k.Spawn("killer", func(p *Proc) {
		p.Advance(5 * Microsecond)
		victim.Kill()
		p.Advance(5 * Microsecond)
		after = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("killed proc's deferred cleanup did not run")
	}
	if !victim.Done() || !victim.Killed() || !victim.Gone() {
		t.Fatalf("victim state: done=%v killed=%v gone=%v", victim.Done(), victim.Killed(), victim.Gone())
	}
	if after != 10*Microsecond {
		t.Fatalf("survivor stopped at %s, want 10us", after)
	}
}

// TestQueueSkipsKilledWaiters: values are never handed to a waiter that
// was killed while parked — the next live waiter (or the buffer) gets it.
func TestQueueSkipsKilledWaiters(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0)
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) {
		q.Get(p)
		t.Error("killed getter received a value")
	})
	var got int
	k.Spawn("survivor", func(p *Proc) {
		p.Advance(1 * Microsecond)
		got = q.Get(p)
	})
	k.Spawn("driver", func(p *Proc) {
		p.Advance(2 * Microsecond)
		victim.Kill()
		p.Advance(1 * Microsecond)
		q.Put(p, 21)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 21 {
		t.Fatalf("survivor got %d, want 21", got)
	}
}

// TestKillIdempotent: killing a dead or already-killed proc is a no-op.
func TestKillIdempotent(t *testing.T) {
	k := NewKernel(1)
	done := k.Spawn("done", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	done.Kill() // finished: must not flip Killed
	if done.Killed() {
		t.Fatal("Kill marked a finished proc as killed")
	}
}
