package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// queueHarness drives a raw eventQueue through the kernel's usage
// contract: pushes never go below the last popped timestamp (the kernel
// clamps at < now), and a cancel removes its event, which may already
// have been popped or removed.
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
// queue and a heap queue and asserts every pop, every removal's outcome
// and every length matches. Each queue gets its own event objects built
// from the same specs.
func runDifferential(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	cal := &queueHarness{q: newCalQueue()}
	hp := &queueHarness{q: &heapQueue{}}
	var seq uint64
	// Every pushed event, index-aligned, for cancel targeting: a target
	// may be queued, popped or already removed.
	var calPushed, hpPushed []*event
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
			calPushed = append(calPushed, ce)
			hpPushed = append(hpPushed, he)
		case op < 8: // pop
			pc, ph := cal.pop(), hp.pop()
			if evKey(pc) != evKey(ph) {
				t.Fatalf("op %d: pop mismatch: cal=%s heap=%s", i, evKey(pc), evKey(ph))
			}
		default: // cancel a random pushed event (both copies)
			if len(calPushed) > 0 {
				j := rng.Intn(len(calPushed))
				rc, rh := cal.q.Remove(calPushed[j]), hp.q.Remove(hpPushed[j])
				if rc != rh {
					t.Fatalf("op %d: remove %s: cal=%v heap=%v", i, evKey(calPushed[j]), rc, rh)
				}
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

// TestQueueDifferentialProperty runs randomized schedule/pop/cancel
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
		var calPushed, hpPushed []*event
		for _, b := range data {
			switch b >> 6 {
			case 0, 1: // push; low bits scale the horizon
				seq++
				at := cal.floor + Time(b&0x3f)*Time(1)<<((b>>3)&0x7)
				ce := &event{at: at, seq: seq}
				he := &event{at: at, seq: seq}
				cal.push(ce)
				hp.push(he)
				calPushed = append(calPushed, ce)
				hpPushed = append(hpPushed, he)
			case 2: // pop
				pc, ph := cal.pop(), hp.pop()
				if evKey(pc) != evKey(ph) {
					t.Fatalf("pop mismatch: cal=%s heap=%s", evKey(pc), evKey(ph))
				}
			case 3: // cancel: the target may be queued, popped or removed
				if len(calPushed) > 0 {
					j := int(b&0x3f) % len(calPushed)
					if rc, rh := cal.q.Remove(calPushed[j]), hp.q.Remove(hpPushed[j]); rc != rh {
						t.Fatalf("remove %s: cal=%v heap=%v", evKey(calPushed[j]), rc, rh)
					}
				}
			}
			if cal.q.Len() != hp.q.Len() {
				t.Fatalf("len mismatch %d vs %d", cal.q.Len(), hp.q.Len())
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
				v, err := q.GetCtl(p, p.Now()+5*Millisecond, nil)
				if err != nil {
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

// TestCancelLeavesQueue: every Cancel takes its timer out of the queue
// at once, so 500 cancelled hour-away timers leave only the live events
// queued, and each is reported to the probe exactly once.
func TestCancelLeavesQueue(t *testing.T) {
	k := NewKernel(1)
	probe := &tallyProbe{}
	k.SetHostProbe(probe)
	const live = 3
	for i := 0; i < live; i++ {
		k.After(Time(i+1)*Second, func() {})
	}
	k.Spawn("churn", func(p *Proc) {
		for i := 0; i < 500; i++ {
			tm := k.AfterTimer(3600*Second, func() { t.Error("cancelled timer fired") })
			tm.Cancel()
			if n := k.pq.Len(); n != live {
				t.Errorf("cancel %d: %d events queued, want the %d live ones", i, n, live)
				return
			}
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if probe.cancelPurge != 500 {
		t.Fatalf("cancelPurge = %d, want 500 (every cancelled timer removed exactly once)", probe.cancelPurge)
	}
	if probe.heapPush != probe.heapPop {
		t.Fatalf("pushes %d != pops %d after drain", probe.heapPush, probe.heapPop)
	}
	if k.Now() != live*Second {
		t.Fatalf("run ended at %s, want %s (cancelled timers must not extend it)", k.Now(), live*Second)
	}
}
