package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cellpilot/internal/fault"
	"cellpilot/internal/sim"
)

// lossyWorld builds the standard test world with a symmetric lossy link
// between nodes 0 and 1.
func lossyWorld(t *testing.T, seed int64, drop float64) (*World, func()) {
	t.Helper()
	c, w := newWorld(t)
	w.Faults = fault.NewInjector(fault.Plan{
		Seed: seed,
		Links: []fault.LinkPolicy{
			{From: 0, To: 1, DropProb: drop},
			{From: 1, To: 0, DropProb: drop},
		},
	})
	return w, func() { run(t, c) }
}

// TestReliableLossyDelivery: every sequenced eager send over a 10% lossy
// link is delivered exactly once, in order, with retransmits recorded.
func TestReliableLossyDelivery(t *testing.T) {
	w, runAll := lossyWorld(t, 42, 0.1)
	const reps = 40
	payload := func(i int) []byte { return []byte(fmt.Sprintf("msg-%03d-%s", i, strings.Repeat("x", 1600))) }
	w.K.Spawn("r0", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			w.Rank(0).Send(p, 2, 7, payload(i))
		}
	})
	w.K.Spawn("r2", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			data, st := w.Rank(2).Recv(p, 0, 7)
			if !bytes.Equal(data, payload(i)) {
				p.Fatalf("message %d out of order or corrupted: %.20q", i, data)
			}
			if st.Count != len(payload(i)) {
				p.Fatalf("message %d count %d", i, st.Count)
			}
		}
	})
	runAll()
	if w.Faults.Counts.LinkDrops == 0 {
		t.Fatal("no drops at 10% loss over 40+ frames; policy not applied")
	}
	if w.Faults.Counts.Retransmits == 0 {
		t.Fatal("drops happened but nothing was retransmitted")
	}
	if w.RelDead(0, 2) {
		t.Fatal("pair severed under mild loss; backoff budget too small")
	}
}

// TestReliableDeterminism: the same seed yields the identical fault log
// and counters; a different seed yields a different drop pattern.
func TestReliableDeterminism(t *testing.T) {
	outcome := func(seed int64) (fault.Counts, string) {
		w, runAll := lossyWorld(t, seed, 0.2)
		w.K.Spawn("r0", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				w.Rank(0).Send(p, 2, 1, make([]byte, 512))
			}
		})
		w.K.Spawn("r2", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				w.Rank(2).Recv(p, 0, 1)
			}
		})
		runAll()
		return w.Faults.Counts, strings.Join(w.Faults.Log(), "\n")
	}
	cA, lA := outcome(7)
	cB, lB := outcome(7)
	if cA != cB || lA != lB {
		t.Fatalf("same seed diverged:\ncounts %+v vs %+v\n--- log A ---\n%s\n--- log B ---\n%s", cA, cB, lA, lB)
	}
	cC, lC := outcome(8)
	if cA == cC && lA == lC {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

// TestReliableAckLoss: loss only on the REVERSE link (acks) still forces
// sequencing — duplicates from ack-loss retransmits must be absorbed, and
// the receiver sees each message exactly once.
func TestReliableAckLoss(t *testing.T) {
	c, w := newWorld(t)
	w.Faults = fault.NewInjector(fault.Plan{
		Seed:  5,
		Links: []fault.LinkPolicy{{From: 1, To: 0, DropProb: 0.3}},
	})
	const reps = 30
	got := 0
	c.K.Spawn("r0", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			w.Rank(0).Send(p, 2, 9, []byte{byte(i)})
		}
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			data, _ := w.Rank(2).Recv(p, 0, 9)
			if len(data) != 1 || data[0] != byte(i) {
				p.Fatalf("message %d: got %v", i, data)
			}
			got++
		}
	})
	run(t, c)
	if got != reps {
		t.Fatalf("delivered %d/%d", got, reps)
	}
	if w.Faults.Counts.AckDrops == 0 {
		t.Fatal("no ack drops at 30% reverse loss")
	}
	if w.Faults.Counts.DupFrames == 0 {
		t.Fatal("ack loss must cause duplicate frames at the receiver")
	}
}

// TestReliableSeverance: a fully dead link exhausts the attempt budget,
// severs the directed pair, and subsequent sends are dropped (counted)
// rather than queued forever. The sender itself never blocks.
func TestReliableSeverance(t *testing.T) {
	c, w := newWorld(t)
	w.Faults = fault.NewInjector(fault.Plan{
		Seed:  1,
		Links: []fault.LinkPolicy{{From: 0, To: 1, DropProb: 1.0}},
	})
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 2, 3, make([]byte, 64))
		// Give the retransmit budget time to exhaust, then send again.
		p.Advance(sim.Second)
		w.Rank(0).Send(p, 2, 3, make([]byte, 64))
	})
	run(t, c)
	if !w.RelDead(0, 2) {
		t.Fatal("pair not severed by a 100% lossy link")
	}
	if got := w.Faults.Counts.GiveUps; got != 1 {
		t.Fatalf("GiveUps = %d, want 1", got)
	}
	if got := w.Faults.Counts.GiveUpDrops; got == 0 {
		t.Fatal("post-severance send was not counted as dropped")
	}
	if got := int(w.Faults.Counts.Retransmits); got != relMaxAttempts-1 {
		t.Fatalf("Retransmits = %d, want %d (attempt budget)", got, relMaxAttempts-1)
	}
}

// TestReliableLocalBypass: intra-node sends never engage the reliability
// layer even when the node pair has a fault policy armed elsewhere.
func TestReliableLocalBypass(t *testing.T) {
	w, runAll := lossyWorld(t, 3, 1.0) // 100% loss on the 0<->1 fabric link
	done := false
	w.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 2, make([]byte, 128)) // node-local
	})
	w.K.Spawn("r1", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0, 2)
		done = true
	})
	runAll()
	if !done {
		t.Fatal("node-local send was routed through the (dead) fabric link")
	}
	if w.Faults.Counts.LinkDrops != 0 {
		t.Fatalf("local traffic hit the link policy: %d drops", w.Faults.Counts.LinkDrops)
	}
}

// TestReliableUnaffectedPairs: a lossy 0<->1 link must not perturb 0<->2
// (xeon) traffic — the reliability layer engages per directed node pair.
func TestReliableUnaffectedPairs(t *testing.T) {
	w, runAll := lossyWorld(t, 3, 0.5)
	var at sim.Time
	w.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 4, 2, make([]byte, 100))
	})
	w.K.Spawn("r4", func(p *sim.Proc) {
		w.Rank(4).Recv(p, 0, 2)
		at = p.Now()
	})
	runAll()
	// Same calibrated band as TestSendRecvRemoteEager: no retry inflation.
	if at < 80*sim.Microsecond || at > 130*sim.Microsecond {
		t.Fatalf("unaffected pair's latency perturbed: %s", at)
	}
	if w.Faults.Counts.Retransmits != 0 {
		t.Fatal("unaffected pair engaged the retransmit path")
	}
}

// TestReliableDuplicateAfterRecycle: with every ack lost, the sender keeps
// retransmitting a frame whose first copy was delivered and received. The
// receive recycles the frame's envelope and the receiver's next send, a
// node-local one, takes the record over, so the later copies arrive while
// that message holds it: each is counted as a duplicate without being
// read, and the message arrives intact.
func TestReliableDuplicateAfterRecycle(t *testing.T) {
	c, w := newWorld(t)
	w.Faults = fault.NewInjector(fault.Plan{
		Seed:  1,
		Links: []fault.LinkPolicy{{From: 1, To: 0, DropProb: 1.0}},
	})
	first := []byte("first frame")
	next := []byte("the next message, which is longer than the first")
	var got []byte
	var gotAt sim.Time
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 2, 1, first)
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		if data, _ := w.Rank(2).Recv(p, 0, 1); !bytes.Equal(data, first) {
			p.Fatalf("first frame: got %q", data)
		}
		w.Rank(2).Send(p, 3, 2, next)
	})
	c.K.Spawn("r3", func(p *sim.Proc) {
		// The retransmissions arrive, and the sender gives up, meanwhile.
		p.Advance(sim.Second)
		var st Status
		got, st = w.Rank(3).Recv(p, 2, 2)
		if st.Count != len(next) {
			p.Fatalf("next message: count %d, want %d", st.Count, len(next))
		}
		gotAt = p.Now()
	})
	run(t, c)
	if !bytes.Equal(got, next) {
		t.Fatalf("next message: got %q, want %q", got, next)
	}
	n := w.Faults.Counts
	if n.DupFrames != relMaxAttempts-1 || n.Retransmits != relMaxAttempts-1 || n.GiveUps != 1 {
		t.Fatalf("counts %+v: want %d duplicates and retransmits, one give-up", n, relMaxAttempts-1)
	}
	if gotAt != sim.Second+w.Par.MPIRecvOverhead {
		t.Fatalf("next message received at %s", gotAt)
	}
	// Every transmission books the first frame's own size on the NIC,
	// although its envelope now carries the longer message.
	if msgs, n := c.Net.Stats(); msgs != relMaxAttempts || n != int64(relMaxAttempts*len(first)) {
		t.Fatalf("NIC carried %d frames, %d bytes; want %d of %d bytes", msgs, n, relMaxAttempts, len(first))
	}
}

// TestReliableInFlightAfterSeverance: every copy of a frame is delayed
// past its retransmission timeout, so the sender severs the pair while
// copies are still in flight. The first copy to arrive is delivered all
// the same, the later ones count as duplicates, and a send after the
// severance is dropped.
func TestReliableInFlightAfterSeverance(t *testing.T) {
	c, w := newWorld(t)
	w.Faults = fault.NewInjector(fault.Plan{
		Seed:  3,
		Links: []fault.LinkPolicy{{From: 0, To: 1, DelayProb: 1.0, MaxDelay: sim.Second}},
	})
	msg := bytes.Repeat([]byte{0xa5}, 700)
	var severedAt, gotAt sim.Time
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 2, 4, msg)
		for i := 0; i < 1000 && !w.RelDead(0, 2); i++ {
			p.Advance(100 * sim.Microsecond)
		}
		severedAt = p.Now()
		w.Rank(0).Send(p, 2, 4, []byte("dropped"))
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		data, _ := w.Rank(2).Recv(p, 0, 4)
		if !bytes.Equal(data, msg) {
			p.Fatalf("got %d bytes %.8x, want the first message", len(data), data)
		}
		gotAt = p.Now()
	})
	run(t, c)
	if gotAt <= severedAt {
		t.Fatalf("received at %s, before the pair was severed (by %s): no copy was in flight", gotAt, severedAt)
	}
	// The outcome the transport had when frames held their envelopes
	// until acked, pinned to the nanosecond.
	want := fault.Counts{LinkDelays: 12, Retransmits: 11, DupFrames: 11, GiveUps: 1, GiveUpDrops: 2}
	if gotAt != 37280506 || c.K.Now() != 985317630 || w.Faults.Counts != want {
		t.Fatalf("received at %d, run ended at %d, counts %+v; want 37280506, 985317630, %+v",
			gotAt, c.K.Now(), w.Faults.Counts, want)
	}
}
