package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cellpilot/internal/fault"
	"cellpilot/internal/sim"
)

// senders are every way to send one message. Each gets the message as
// segments; the plain senders use only the first. send returns a
// nonblocking sender's request and nil for a blocking one.
var senders = []struct {
	name string
	send func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request
}{
	{"Send", func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request {
		r.Send(p, dst, tag, segs[0])
		return nil
	}},
	{"Isend", func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request {
		return r.Isend(p, dst, tag, segs[0])
	}},
	{"SendCtl", func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request {
		if err := r.SendCtl(p, dst, tag, segs[0], Ctl{Deadline: sim.Second}); err != nil {
			p.Fatalf("SendCtl: %v", err)
		}
		return nil
	}},
	{"SendVec", func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request {
		r.SendVec(p, dst, tag, segs...)
		return nil
	}},
	{"IsendVec", func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request {
		return r.IsendVec(p, dst, tag, segs...)
	}},
	{"SendVecCtl", func(r *Rank, p *sim.Proc, dst, tag int, segs [][]byte) *Request {
		if err := r.SendVecCtl(p, dst, tag, Ctl{Deadline: sim.Second}, segs...); err != nil {
			p.Fatalf("SendVecCtl: %v", err)
		}
		return nil
	}},
}

// TestSenderBufferReuse: every sender delivers exactly the bytes its
// buffers held at the call, eager or rendezvous, local or remote, even
// though the sender overwrites them as soon as the call returns. The *Vec
// senders deliver the concatenation of their segments, an empty one
// included.
func TestSenderBufferReuse(t *testing.T) {
	for _, s := range senders {
		for _, size := range []int{1600, 8192} {
			for _, dst := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%dB/rank%d", s.name, size, dst), func(t *testing.T) {
					c, w := newWorld(t)
					want := make([]byte, size)
					for i := range want {
						want[i] = byte(i*7 + 1)
					}
					whole := append([]byte(nil), want...)
					segs := [][]byte{whole}
					if strings.Contains(s.name, "Vec") {
						segs = [][]byte{whole[:16], nil, whole[16:100], whole[100:]}
					}
					c.K.Spawn("tx", func(p *sim.Proc) {
						q := s.send(w.Rank(0), p, dst, 5, segs)
						for _, seg := range segs {
							for i := range seg {
								seg[i] = 0xEE
							}
						}
						if q != nil {
							w.Rank(0).Wait(p, q)
						}
					})
					c.K.Spawn("rx", func(p *sim.Proc) {
						got, st := w.Rank(dst).Recv(p, 0, 5)
						if !bytes.Equal(got, want) || st.Count != size {
							p.Fatalf("received %d bytes (status count %d) that differ from what was sent", len(got), st.Count)
						}
					})
					run(t, c)
				})
			}
		}
	}
}

// TestReceivedBuffersNeverAlias: messages sent from one reused buffer
// arrive in distinct buffers, through every receive that returns one, and
// none aliases the sender's buffer.
func TestReceivedBuffersNeverAlias(t *testing.T) {
	c, w := newWorld(t)
	buf := []byte("same buffer")
	var got [][]byte
	c.K.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			w.Rank(0).Send(p, 2, i, buf)
		}
	})
	c.K.Spawn("rx", func(p *sim.Proc) {
		r := w.Rank(2)
		a, _ := r.Recv(p, 0, 0)
		b, _ := r.Wait(p, r.Irecv(p, 0, 1))
		cc, _, err := r.RecvCtl(p, 0, 2, Ctl{})
		if err != nil {
			p.Fatalf("RecvCtl: %v", err)
		}
		d, _ := r.Recv(p, 0, 3) // already queued as unexpected
		got = [][]byte{a, b, cc, d}
	})
	run(t, c)
	for i, g := range got {
		if !bytes.Equal(g, buf) {
			t.Fatalf("message %d = %q", i, g)
		}
		g[0] = byte('0' + i)
	}
	for i, g := range got {
		if g[0] != byte('0'+i) || &g[0] == &buf[0] {
			t.Fatalf("received buffer %d aliases another buffer", i)
		}
	}
}

// TestLossyLinkDeliversEachFrameOnce: over a link that drops frames and
// acks, retransmitted frames reach the receiver once each, in distinct
// buffers, and nothing extra is left queued.
func TestLossyLinkDeliversEachFrameOnce(t *testing.T) {
	c, w := newWorld(t)
	w.Faults = fault.NewInjector(fault.Plan{
		Seed: 5,
		Links: []fault.LinkPolicy{
			{From: 0, To: 1, DropProb: 0.2},
			{From: 1, To: 0, DropProb: 0.3},
		},
	})
	const reps = 30
	var got [][]byte
	c.K.Spawn("tx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for i := 0; i < reps; i++ {
			buf[0] = byte(i)
			w.Rank(0).Send(p, 2, 9, buf)
		}
	})
	c.K.Spawn("rx", func(p *sim.Proc) {
		r := w.Rank(2)
		for i := 0; i < reps; i++ {
			data, _ := r.Recv(p, 0, 9)
			got = append(got, data)
		}
		p.Advance(sim.Second) // every retransmit and ack has landed
		if st, ok := r.Iprobe(p, AnySource, AnyTag); ok {
			p.Fatalf("extra delivery after all %d messages: %+v", reps, st)
		}
	})
	run(t, c)
	if w.Faults.Counts.DupFrames == 0 || w.Faults.Counts.Retransmits == 0 {
		t.Fatalf("no duplicate frames to discard: %+v", w.Faults.Counts)
	}
	for i, g := range got {
		if len(g) != 64 || g[0] != byte(i) {
			t.Fatalf("message %d: %v", i, g[:1])
		}
	}
	for i := 1; i < reps; i++ {
		if &got[i][0] == &got[i-1][0] {
			t.Fatalf("messages %d and %d share a buffer", i-1, i)
		}
	}
}

// TestZeroLengthEagerIsEmptyNotNil: a zero-length message arrives as a
// non-nil empty slice through every receive that returns a buffer, from
// every sender that can carry it.
func TestZeroLengthEagerIsEmptyNotNil(t *testing.T) {
	c, w := newWorld(t)
	var got [][]byte
	c.K.Spawn("tx", func(p *sim.Proc) {
		r := w.Rank(0)
		r.Send(p, 2, 0, nil)
		r.Wait(p, r.Isend(p, 2, 1, []byte{}))
		if err := r.SendCtl(p, 2, 2, nil, Ctl{}); err != nil {
			p.Fatalf("SendCtl: %v", err)
		}
		r.SendVec(p, 2, 3)
		r.SendChunk(p, 2, 4, nil)
	})
	c.K.Spawn("rx", func(p *sim.Proc) {
		r := w.Rank(2)
		a, _ := r.Recv(p, 0, 0)
		b, _ := r.Wait(p, r.Irecv(p, 0, 1))
		cc, _, err := r.RecvCtl(p, 0, 2, Ctl{})
		if err != nil {
			p.Fatalf("RecvCtl: %v", err)
		}
		d, _ := r.Recv(p, 0, 3)
		e, _ := r.Recv(p, 0, 4)
		got = [][]byte{a, b, cc, d, e}
	})
	run(t, c)
	for i, g := range got {
		if g == nil || len(g) != 0 {
			t.Fatalf("message %d = %#v, want a non-nil empty slice", i, g)
		}
	}
}

// TestEagerRoundCopiesPayloadOnce: an eager Isend/Irecv/Waitall exchange
// allocates less than two payload copies per message. The send snapshot
// is the only copy; the receive takes it.
func TestEagerRoundCopiesPayloadOnce(t *testing.T) {
	c, w := newWorld(t)
	const rounds, size = 200, 4096
	if size > w.Par.EagerThreshold {
		t.Fatalf("payload %d is not eager (threshold %d)", size, w.Par.EagerThreshold)
	}
	for _, pair := range [][2]int{{0, 2}, {2, 0}} {
		me, peer := pair[0], pair[1]
		c.K.Spawn(fmt.Sprintf("r%d", me), func(p *sim.Proc) {
			r := w.Rank(me)
			buf := make([]byte, size)
			for i := 0; i < rounds; i++ {
				rq := r.Irecv(p, peer, 1)
				sq := r.Isend(p, peer, 1, buf)
				r.Waitall(p, []*Request{rq, sq})
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(t, c)
	runtime.ReadMemStats(&after)
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds)
	if perMsg >= 2*size {
		t.Fatalf("%.0f bytes allocated per %d-byte eager message, want under two payload copies (%d)", perMsg, size, 2*size)
	}
}
