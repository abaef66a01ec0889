package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// queueHarness drives a raw eventQueue through the kernel's usage
// contract: pushes never go below the last popped timestamp (the kernel
// clamps at < now), cancels mark queued events, and Compact purges them.
type queueHarness struct {
	q     eventQueue
	floor Time
}

func (h *queueHarness) push(ev *event) {
	if ev.at < h.floor {
		ev.at = h.floor
	}
	h.q.Push(ev)
}

func (h *queueHarness) pop() *event {
	ev := h.q.Pop()
	if ev != nil {
		h.floor = ev.at
	}
	return ev
}

// evKey is a stable identity for comparing pop orders across queues.
func evKey(ev *event) string {
	if ev == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%d/%d", ev.at, ev.seq)
}

// runDifferential feeds the identical operation stream to a calendar
// queue and a heap queue and asserts every pop (and compaction survivor
// set) matches. Each queue gets its own event objects (they are mutated
// in place by compaction) built from the same specs.
func runDifferential(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	cal := &queueHarness{q: newCalQueue()}
	hp := &queueHarness{q: &heapQueue{}}
	var seq uint64
	// Parallel live sets, index-aligned, for cancel targeting.
	var calLive, hpLive []*event
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // push
			seq++
			at := cal.floor
			switch rng.Intn(4) {
			case 0: // clustered short-horizon (the Co-Pilot scan idiom)
				at += Time(rng.Intn(2000))
			case 1: // same-instant burst
			case 2: // long horizon
				at += Time(rng.Int63n(int64(Second)))
			case 3: // extreme, near end of time
				if rng.Intn(20) == 0 {
					at = Forever - Time(rng.Intn(3))
				} else {
					at += Time(rng.Int63n(int64(3600 * Second)))
				}
			}
			ce := &event{at: at, seq: seq}
			he := &event{at: at, seq: seq}
			cal.push(ce)
			hp.push(he)
			calLive = append(calLive, ce)
			hpLive = append(hpLive, he)
		case op < 8: // pop (and purge cancelled heads, like the kernel)
			for {
				pc, ph := cal.pop(), hp.pop()
				if evKey(pc) != evKey(ph) {
					t.Fatalf("op %d: pop mismatch: cal=%s heap=%s", i, evKey(pc), evKey(ph))
				}
				if pc == nil || !pc.cancelled {
					break
				}
			}
		case op < 9: // cancel a random live event (both copies)
			if len(calLive) > 0 {
				j := rng.Intn(len(calLive))
				calLive[j].cancelled = true
				hpLive[j].cancelled = true
			}
		default: // compact
			var pc, ph []string
			cal.q.Compact(func(ev *event) { pc = append(pc, evKey(ev)) })
			hp.q.Compact(func(ev *event) { ph = append(ph, evKey(ev)) })
			if len(pc) != len(ph) {
				t.Fatalf("op %d: compact purged %d vs %d", i, len(pc), len(ph))
			}
			if cal.q.Len() != hp.q.Len() {
				t.Fatalf("op %d: post-compact len %d vs %d", i, cal.q.Len(), hp.q.Len())
			}
		}
		if cal.q.Len() != hp.q.Len() {
			t.Fatalf("op %d: len mismatch %d vs %d", i, cal.q.Len(), hp.q.Len())
		}
		if pk, hk := evKey(cal.q.Peek()), evKey(hp.q.Peek()); pk != hk {
			t.Fatalf("op %d: peek mismatch cal=%s heap=%s", i, pk, hk)
		}
	}
	// Drain both fully: the tails must agree too.
	for cal.q.Len() > 0 {
		if pc, ph := evKey(cal.pop()), evKey(hp.pop()); pc != ph {
			t.Fatalf("drain: pop mismatch cal=%s heap=%s", pc, ph)
		}
	}
	if hp.q.Len() != 0 {
		t.Fatalf("heap retains %d events after calendar drained", hp.q.Len())
	}
}

// TestQueueDifferentialProperty runs randomized schedule/cancel/compact
// streams against both queue implementations; identical pop orders are
// the determinism foundation the bit-for-bit guarantees sit on.
func TestQueueDifferentialProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runDifferential(t, rand.New(rand.NewSource(seed)), 600)
	}
}

// TestCalQueueResizeStress forces many grow/shrink cycles and checks
// global ordering across them.
func TestCalQueueResizeStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := newCalQueue()
	var seq uint64
	var floor Time
	phase := func(pushes, pops int) {
		for i := 0; i < pushes; i++ {
			seq++
			q.Push(&event{at: floor + Time(rng.Int63n(int64(Millisecond))), seq: seq})
		}
		last := struct {
			at  Time
			seq uint64
		}{-1, 0}
		for i := 0; i < pops && q.Len() > 0; i++ {
			ev := q.Pop()
			if ev.at < last.at || (ev.at == last.at && ev.seq < last.seq) {
				t.Fatalf("out of order: (%d,%d) after (%d,%d)", ev.at, ev.seq, last.at, last.seq)
			}
			last.at, last.seq = ev.at, ev.seq
			floor = ev.at
		}
	}
	phase(5000, 4000)  // grow far past the initial 16 buckets
	phase(100, 1050)   // shrink back down
	phase(20000, 8000) // grow again with a moved floor
	for q.Len() > 0 {
		phase(0, 1000)
	}
}

// TestCalQueueForeverEvents exercises the saturating window math at the
// end of virtual time.
func TestCalQueueForeverEvents(t *testing.T) {
	q := newCalQueue()
	q.Push(&event{at: Forever, seq: 2})
	q.Push(&event{at: Forever - 1, seq: 3})
	q.Push(&event{at: 5, seq: 1})
	for i, want := range []Time{5, Forever - 1, Forever} {
		if got := q.Pop(); got == nil || got.at != want {
			t.Fatalf("pop %d: got %v, want at=%d", i, got, want)
		}
	}
}

// FuzzQueueDifferential drives both queues from a fuzz-generated op
// stream; any divergence in pop order is a crash.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x81, 0x02, 0xc0, 0x03})
	f.Add([]byte{0x00, 0x00, 0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		cal := &queueHarness{q: newCalQueue()}
		hp := &queueHarness{q: &heapQueue{}}
		var seq uint64
		var calLive, hpLive []*event
		for _, b := range data {
			switch b >> 6 {
			case 0, 1: // push; low bits scale the horizon
				seq++
				at := cal.floor + Time(b&0x3f)*Time(1)<<((b>>3)&0x7)
				ce := &event{at: at, seq: seq}
				he := &event{at: at, seq: seq}
				cal.push(ce)
				hp.push(he)
				calLive = append(calLive, ce)
				hpLive = append(hpLive, he)
			case 2: // pop
				pc, ph := cal.pop(), hp.pop()
				if evKey(pc) != evKey(ph) {
					t.Fatalf("pop mismatch: cal=%s heap=%s", evKey(pc), evKey(ph))
				}
			case 3: // cancel + occasionally compact
				if len(calLive) > 0 {
					j := int(b&0x3f) % len(calLive)
					calLive[j].cancelled = true
					hpLive[j].cancelled = true
				}
				if b&0x20 != 0 {
					n := 0
					cal.q.Compact(func(*event) { n++ })
					m := 0
					hp.q.Compact(func(*event) { m++ })
					if n != m {
						t.Fatalf("compact purged %d vs %d", n, m)
					}
				}
			}
		}
		for cal.q.Len() > 0 {
			if pc, ph := evKey(cal.pop()), evKey(hp.pop()); pc != ph {
				t.Fatalf("drain mismatch: cal=%s heap=%s", pc, ph)
			}
		}
		if hp.q.Len() != 0 {
			t.Fatalf("length divergence at drain")
		}
	})
}

// TestKernelQueueKindsEquivalent runs an identical proc workload —
// timers, cancellations, queue handoffs, random advances — on a
// heap-backed and a calendar-backed kernel and requires the dispatch
// traces to match exactly.
func TestKernelQueueKindsEquivalent(t *testing.T) {
	run := func(kind QueueKind) []string {
		var log []string
		k := NewKernelQueue(42, kind)
		q := NewQueue[int](k, "work", 2)
		for w := 0; w < 3; w++ {
			w := w
			k.Spawn(fmt.Sprintf("prod%d", w), func(p *Proc) {
				rng := p.Rand()
				for i := 0; i < 50; i++ {
					p.Advance(Time(rng.Intn(900)))
					q.Put(p, w*1000+i)
					if i%7 == 0 {
						tm := k.AfterTimer(Time(rng.Intn(500)), func() {
							log = append(log, fmt.Sprintf("t=%d timer %d/%d", k.Now(), w, i))
						})
						if i%14 == 0 {
							tm.Cancel()
						}
					}
				}
			})
		}
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < 150; i++ {
				v, ok := q.GetTimeout(p, 5*Millisecond)
				if !ok {
					log = append(log, fmt.Sprintf("t=%d timeout", k.Now()))
					continue
				}
				log = append(log, fmt.Sprintf("t=%d got %d", k.Now(), v))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		log = append(log, fmt.Sprintf("end t=%d", k.Now()))
		return log
	}
	hp, cal := run(QueueHeap), run(QueueCalendar)
	if len(hp) != len(cal) {
		t.Fatalf("trace lengths differ: heap=%d calendar=%d", len(hp), len(cal))
	}
	for i := range hp {
		if hp[i] != cal[i] {
			t.Fatalf("trace diverges at %d: heap=%q calendar=%q", i, hp[i], cal[i])
		}
	}
}

// tallyProbe counts every HostProbe callback.
type tallyProbe struct{ events, heapPush, heapPop, cancelPurge int }

func (t *tallyProbe) Event()         { t.events++ }
func (t *tallyProbe) HeapPush(int)   { t.heapPush++ }
func (t *tallyProbe) HeapPop()       { t.heapPop++ }
func (t *tallyProbe) CancelPurge()   { t.cancelPurge++ }
func (t *tallyProbe) SliceStart(int) {}
func (t *tallyProbe) SliceEnd(int)   {}

// TestCancelCompaction verifies heavy cancel churn triggers bulk
// compaction instead of letting cancelled entries accumulate.
func TestCancelCompaction(t *testing.T) {
	k := NewKernel(1)
	probe := &tallyProbe{}
	k.SetHostProbe(probe)
	k.Spawn("churn", func(p *Proc) {
		for i := 0; i < 500; i++ {
			tm := k.AfterTimer(3600*Second, func() {})
			tm.Cancel()
			if k.pq.Len() > 260 {
				// 500 cancelled Hour-away timers + a handful of live wake
				// events: without compaction the queue grows past 500.
				t.Errorf("queue grew to %d despite cancel compaction", k.pq.Len())
				return
			}
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if probe.cancelPurge != 500 {
		t.Fatalf("cancelPurge = %d, want 500 (every cancelled timer purged exactly once)", probe.cancelPurge)
	}
	if probe.heapPush != probe.heapPop {
		t.Fatalf("pushes %d != pops %d after drain", probe.heapPush, probe.heapPop)
	}
}
