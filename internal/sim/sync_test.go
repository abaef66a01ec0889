package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func runSim(t *testing.T, seed int64, setup func(k *Kernel)) {
	t.Helper()
	k := NewKernel(seed)
	setup(k)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueRendezvous(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		q := NewQueue[int](k, "q", 0)
		var got []int
		k.Spawn("producer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(Microsecond)
				q.Put(p, i)
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				got = append(got, q.Get(p))
			}
			if fmt.Sprint(got) != "[0 1 2 3 4]" {
				p.Fatalf("got %v", got)
			}
		})
	})
}

func TestQueueRendezvousBlocksPutter(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		q := NewQueue[int](k, "q", 0)
		var putDone Time
		k.Spawn("putter", func(p *Proc) {
			q.Put(p, 42)
			putDone = p.Now()
		})
		k.Spawn("getter", func(p *Proc) {
			p.Advance(9 * Microsecond)
			if v := q.Get(p); v != 42 {
				p.Fatalf("got %d", v)
			}
		})
		k.Spawn("checker", func(p *Proc) {
			p.Advance(20 * Microsecond)
			if putDone != 9*Microsecond {
				p.Fatalf("putter resumed at %s, want 9us", putDone)
			}
		})
	})
}

func TestQueueBufferedCapacity(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		q := NewQueue[int](k, "q", 2)
		var thirdPutAt Time
		k.Spawn("putter", func(p *Proc) {
			q.Put(p, 1) // buffered
			q.Put(p, 2) // buffered
			q.Put(p, 3) // blocks until a Get frees space
			thirdPutAt = p.Now()
		})
		k.Spawn("getter", func(p *Proc) {
			p.Advance(5 * Microsecond)
			for want := 1; want <= 3; want++ {
				if v := q.Get(p); v != want {
					p.Fatalf("got %d want %d", v, want)
				}
			}
			p.Advance(Microsecond) // let the unblocked putter run
			if thirdPutAt != 5*Microsecond {
				p.Fatalf("third put completed at %s", thirdPutAt)
			}
		})
	})
}

func TestQueueTryOps(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		q := NewQueue[string](k, "q", 1)
		k.Spawn("solo", func(p *Proc) {
			if _, ok := q.TryGet(); ok {
				p.Fatalf("TryGet on empty queue succeeded")
			}
			if !q.TryPut("a") {
				p.Fatalf("TryPut into empty buffered queue failed")
			}
			if q.TryPut("b") {
				p.Fatalf("TryPut into full queue succeeded")
			}
			v, ok := q.TryGet()
			if !ok || v != "a" {
				p.Fatalf("TryGet = %q, %v", v, ok)
			}
		})
	})
}

// TestQueueParkReasons: a deadlock report names each blocked Get, GetCtl,
// Put and PutCtl by its queue, formatting the text only when it reports.
func TestQueueParkReasons(t *testing.T) {
	for _, c := range []struct {
		body func(q *Queue[int], p *Proc)
		want string
	}{
		{func(q *Queue[int], p *Proc) { q.Get(p) }, "get on queue mbox"},
		{func(q *Queue[int], p *Proc) { q.GetCtl(p, 0, nil) }, "get on queue mbox"},
		{func(q *Queue[int], p *Proc) { q.Put(p, 1) }, "put on queue mbox"},
		{func(q *Queue[int], p *Proc) { q.PutCtl(p, 1, 0, nil) }, "put on queue mbox"},
	} {
		k := NewKernel(1)
		q := NewQueue[int](k, "mbox", 0)
		k.Spawn("stuck", func(p *Proc) { c.body(q, p) })
		var dl *ErrDeadlock
		if err := k.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0].Reason != c.want {
			t.Errorf("deadlock %v, want one proc blocked on %q", err, c.want)
		}
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		s := NewSemaphore(k, "s", 0)
		var order []int
		for i := 0; i < 3; i++ {
			i := i
			k.SpawnAfter(fmt.Sprintf("w%d", i), Time(i)*Microsecond, func(p *Proc) {
				s.Acquire(p, 1)
				order = append(order, i)
			})
		}
		k.Spawn("releaser", func(p *Proc) {
			p.Advance(10 * Microsecond)
			s.Release(3)
			p.Advance(Microsecond)
			if fmt.Sprint(order) != "[0 1 2]" {
				p.Fatalf("wakeup order %v", order)
			}
		})
	})
}

func TestSemaphoreNoBarging(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		s := NewSemaphore(k, "s", 0)
		var first string
		k.Spawn("big", func(p *Proc) {
			s.Acquire(p, 2) // arrives first, needs 2
			if first == "" {
				first = "big"
			}
		})
		k.SpawnAfter("small", Microsecond, func(p *Proc) {
			s.Acquire(p, 1) // would fit after Release(1), but must queue behind big
			if first == "" {
				first = "small"
			}
		})
		k.SpawnAfter("rel", 2*Microsecond, func(p *Proc) {
			s.Release(1) // big (first in line) needs 2: small must not barge
			p.Advance(Microsecond)
			s.Release(1) // big proceeds
			p.Advance(Microsecond)
			s.Release(1) // now small
			p.Advance(Microsecond)
			if first != "big" {
				p.Fatalf("FIFO violated: %q acquired first", first)
			}
		})
	})
}

func TestEventBroadcast(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		e := NewEvent(k, "go")
		released := 0
		for i := 0; i < 4; i++ {
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				e.Wait(p)
				released++
			})
		}
		k.Spawn("firer", func(p *Proc) {
			p.Advance(3 * Microsecond)
			e.Fire()
			e.Fire() // idempotent
			p.Advance(Microsecond)
			if released != 4 {
				p.Fatalf("released = %d", released)
			}
			e.Wait(p) // post-fire wait returns immediately
		})
	})
}

func TestResourceSerializes(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		// 1000 bytes/sec => 1 byte takes 1ms to serialize.
		r := NewResource(k, "link", 0, 1000, 5*Millisecond)
		var arrivals []Time
		for i := 0; i < 3; i++ {
			k.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) {
				arr := r.Send(p, 10) // 10 ms serialization each
				arrivals = append(arrivals, arr)
			})
		}
		k.Spawn("check", func(p *Proc) {
			p.Advance(100 * Millisecond)
			want := []Time{15 * Millisecond, 25 * Millisecond, 35 * Millisecond}
			for i, w := range want {
				if arrivals[i] != w {
					p.Fatalf("arrival[%d] = %s, want %s", i, arrivals[i], w)
				}
			}
		})
	})
}

func TestResourceInfiniteBandwidth(t *testing.T) {
	runSim(t, 1, func(k *Kernel) {
		r := NewResource(k, "bus", 2*Microsecond, 0, 0)
		k.Spawn("s", func(p *Proc) {
			arr := r.Send(p, 1<<20)
			if arr != 2*Microsecond {
				p.Fatalf("arrival %s, want 2us", arr)
			}
		})
	})
}

// Property: for any sequence of puts with arbitrary inter-arrival times and
// any queue capacity, a FIFO consumer observes exactly the produced sequence.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(capacity uint8, vals []int16, gaps []uint16) bool {
		capn := int(capacity % 8)
		if len(vals) > 64 {
			vals = vals[:64]
		}
		k := NewKernel(7)
		q := NewQueue[int16](k, "q", capn)
		var got []int16
		k.Spawn("prod", func(p *Proc) {
			for i, v := range vals {
				if i < len(gaps) {
					p.Advance(Time(gaps[i]) * Nanosecond)
				}
				q.Put(p, v)
			}
		})
		k.Spawn("cons", func(p *Proc) {
			for range vals {
				got = append(got, q.Get(p))
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
