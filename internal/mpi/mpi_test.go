package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cellpilot/internal/cluster"
	"cellpilot/internal/sim"
)

// newWorld builds a 2-cell + 1-xeon cluster with ranks: 0,1 on cell0,
// 2,3 on cell1, 4 on xeon0.
func newWorld(t *testing.T) (*cluster.Cluster, *World) {
	t.Helper()
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(c, []Placement{
		{Node: 0, Label: "r0"}, {Node: 0, Label: "r1"},
		{Node: 1, Label: "r2"}, {Node: 1, Label: "r3"},
		{Node: 2, Label: "r4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, w
}

func run(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvRemoteEager(t *testing.T) {
	c, w := newWorld(t)
	payload := []byte("hello from rank 0")
	var at sim.Time
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 2, 7, payload)
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		data, st := w.Rank(2).Recv(p, 0, 7)
		if !bytes.Equal(data, payload) {
			p.Fatalf("data %q", data)
		}
		if st.Source != 0 || st.Tag != 7 || st.Count != len(payload) {
			p.Fatalf("status %+v", st)
		}
		at = p.Now()
	})
	run(t, c)
	// One-way remote time must be in the calibrated band (~90-110us for
	// tiny messages, cf. paper Table II type 1 hand-coded = 98us).
	if at < 80*sim.Microsecond || at > 130*sim.Microsecond {
		t.Fatalf("remote eager recv completed at %s", at)
	}
}

func TestSendRecvLocalFasterThanRemote(t *testing.T) {
	c, w := newWorld(t)
	var localDone, remoteDone sim.Time
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 1, make([]byte, 100))
	})
	c.K.Spawn("r1", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0, 1)
		localDone = p.Now()
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		w.Rank(2).Send(p, 3, 1, make([]byte, 100)) // also local (node 1)
		w.Rank(2).Send(p, 4, 2, make([]byte, 100)) // remote to xeon — wait, rank2 sends
	})
	c.K.Spawn("r3", func(p *sim.Proc) {
		w.Rank(3).Recv(p, 2, 1)
	})
	c.K.Spawn("r4", func(p *sim.Proc) {
		w.Rank(4).Recv(p, 2, 2)
		remoteDone = p.Now()
	})
	run(t, c)
	if localDone >= remoteDone {
		t.Fatalf("local (%s) should beat remote (%s)", localDone, remoteDone)
	}
}

func TestRecvWildcards(t *testing.T) {
	c, w := newWorld(t)
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 4, 5, []byte("a"))
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		p.Advance(sim.Millisecond)
		w.Rank(2).Send(p, 4, 6, []byte("b"))
	})
	c.K.Spawn("r4", func(p *sim.Proc) {
		d1, st1 := w.Rank(4).Recv(p, AnySource, AnyTag)
		d2, st2 := w.Rank(4).Recv(p, AnySource, AnyTag)
		if string(d1) != "a" || st1.Source != 0 || st1.Tag != 5 {
			p.Fatalf("first: %q %+v", d1, st1)
		}
		if string(d2) != "b" || st2.Source != 2 || st2.Tag != 6 {
			p.Fatalf("second: %q %+v", d2, st2)
		}
	})
	run(t, c)
}

func TestNonOvertakingSameSender(t *testing.T) {
	c, w := newWorld(t)
	const n = 20
	c.K.Spawn("r0", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 8)
			binary.BigEndian.PutUint64(buf, uint64(i))
			w.Rank(0).Send(p, 2, 9, buf)
		}
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			data, _ := w.Rank(2).Recv(p, 0, 9)
			if got := binary.BigEndian.Uint64(data); got != uint64(i) {
				p.Fatalf("message %d arrived as %d", i, got)
			}
		}
	})
	run(t, c)
}

func TestRendezvousBlocksSenderUntilRecv(t *testing.T) {
	c, w := newWorld(t)
	big := make([]byte, 64*1024) // above the 4K eager threshold
	for i := range big {
		big[i] = byte(i % 251)
	}
	var sendDone sim.Time
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 2, 3, big)
		sendDone = p.Now()
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		p.Advance(50 * sim.Millisecond) // receiver arrives very late
		data, _ := w.Rank(2).Recv(p, 0, 3)
		if !bytes.Equal(data, big) {
			p.Fatalf("rendezvous corrupted payload")
		}
	})
	run(t, c)
	if sendDone < 50*sim.Millisecond {
		t.Fatalf("rendezvous send returned at %s, before the recv was posted", sendDone)
	}
}

func TestEagerDoesNotBlockSender(t *testing.T) {
	c, w := newWorld(t)
	var sendDone sim.Time
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 2, 3, make([]byte, 64))
		sendDone = p.Now()
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		p.Advance(50 * sim.Millisecond)
		w.Rank(2).Recv(p, 0, 3)
	})
	run(t, c)
	if sendDone > sim.Millisecond {
		t.Fatalf("eager send blocked until %s", sendDone)
	}
}

func TestRecvIntoAliasesBuffer(t *testing.T) {
	c, w := newWorld(t)
	dst := make([]byte, 32)
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 1, []byte("zero-copy target"))
	})
	c.K.Spawn("r1", func(p *sim.Proc) {
		n, st := w.Rank(1).RecvInto(p, 0, 1, dst)
		if n != 16 || st.Count != 16 {
			p.Fatalf("n=%d st=%+v", n, st)
		}
	})
	run(t, c)
	if string(dst[:16]) != "zero-copy target" {
		t.Fatalf("dst = %q", dst)
	}
}

func TestRecvIntoTooSmallAborts(t *testing.T) {
	c, w := newWorld(t)
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 1, make([]byte, 100))
	})
	c.K.Spawn("r1", func(p *sim.Proc) {
		w.Rank(1).RecvInto(p, 0, 1, make([]byte, 10))
	})
	err := c.K.Run()
	if err == nil || !strings.Contains(err.Error(), "buffer too small") {
		t.Fatalf("err = %v", err)
	}
}

func TestProbeAndIprobe(t *testing.T) {
	c, w := newWorld(t)
	c.K.Spawn("r0", func(p *sim.Proc) {
		p.Advance(sim.Millisecond)
		w.Rank(0).Send(p, 1, 42, make([]byte, 77))
	})
	c.K.Spawn("r1", func(p *sim.Proc) {
		if _, ok := w.Rank(1).Iprobe(p, AnySource, AnyTag); ok {
			p.Fatalf("Iprobe true before any send")
		}
		st := w.Rank(1).Probe(p, 0, 42) // blocks until the message lands
		if st.Count != 77 {
			p.Fatalf("probe count %d", st.Count)
		}
		// Probe must not consume: Iprobe then Recv still see it.
		if _, ok := w.Rank(1).Iprobe(p, 0, 42); !ok {
			p.Fatalf("Iprobe false after probe")
		}
		data, _ := w.Rank(1).Recv(p, 0, 42)
		if len(data) != 77 {
			p.Fatalf("recv len %d", len(data))
		}
	})
	run(t, c)
}

// TestUnmatchedRecvDeadlocks: every blocking wait names itself in the
// deadlock report, verbatim, although the reasons with values are
// formatted only when the report is built.
func TestUnmatchedRecvDeadlocks(t *testing.T) {
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	placements := make([]Placement, 7)
	for i := range placements {
		placements[i] = Placement{Node: i % 3, Label: fmt.Sprintf("r%d", i)}
	}
	w, err := NewWorld(c, placements)
	if err != nil {
		t.Fatal(err)
	}
	c.K.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Recv(p, 2, 1) // nobody sends
	})
	c.K.Spawn("r1", func(p *sim.Proc) {
		w.Rank(1).RecvCtl(p, 4, 2, Ctl{})
	})
	c.K.Spawn("r2", func(p *sim.Proc) {
		w.Rank(2).RecvIntoVec(p, 0, 3, make([]byte, 4), make([]byte, 4))
	})
	c.K.Spawn("r3", func(p *sim.Proc) {
		r := w.Rank(3)
		r.Wait(p, r.Irecv(p, 4, 1)) // nor here
	})
	c.K.Spawn("r4", func(p *sim.Proc) {
		w.Rank(4).ProbeMulti(p, []ProbeSpec{{Src: 0, Tag: 5}, {Src: 1, Tag: 6}})
	})
	big := 2 * w.Par.EagerThreshold
	c.K.Spawn("r5", func(p *sim.Proc) {
		w.Rank(5).Send(p, 6, 7, make([]byte, big)) // rank 6 never receives
	})
	snr := c.Nodes[1].Cells[0].SPEs[2].SNR1
	c.K.Spawn("spu", func(p *sim.Proc) {
		snr.Read(p) // nobody signals
	})
	err = c.K.Run()
	var dl *sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	for _, reason := range []string{
		"r0: mpi recv rank0 src=2 tag=1",
		"r1: mpi recv rank1 src=4 tag=2",
		"r2: mpi recvvec rank2 src=0 tag=3",
		"r3: mpi wait rank3",
		"r4: mpi probemulti rank4 (2 patterns)",
		fmt.Sprintf("r5: mpi rendezvous send rank5->rank6 tag 7 (%d bytes)", big),
		"spu: read signal " + c.Nodes[1].Name + "/spe2/snr1",
	} {
		if !strings.Contains(err.Error(), "\n  "+reason+"\n") && !strings.HasSuffix(err.Error(), "\n  "+reason) {
			t.Errorf("deadlock report lacks %q:\n%v", reason, err)
		}
	}
}

func TestThreadSingleEnforced(t *testing.T) {
	c, w := newWorld(t)
	c.K.Spawn("owner", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 1, nil)
	})
	c.K.Spawn("thief", func(p *sim.Proc) {
		p.Advance(sim.Millisecond)
		w.Rank(0).Send(p, 1, 1, nil)
	})
	c.K.Spawn("r1", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0, 1)
		w.Rank(1).Recv(p, 0, 1)
	})
	err := c.K.Run()
	if err == nil || !strings.Contains(err.Error(), "MPI_THREAD_SINGLE") {
		t.Fatalf("err = %v", err)
	}
}

func TestBarrier(t *testing.T) {
	c, w := newWorld(t)
	var after []sim.Time
	var slowest sim.Time
	for i := 0; i < w.Size(); i++ {
		i := i
		c.K.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			delay := sim.Time(i) * 10 * sim.Millisecond
			p.Advance(delay)
			if delay > slowest {
				slowest = delay
			}
			w.Rank(i).Barrier(p)
			after = append(after, p.Now())
		})
	}
	run(t, c)
	if len(after) != w.Size() {
		t.Fatalf("only %d ranks passed the barrier", len(after))
	}
	for _, ts := range after {
		if ts < slowest {
			t.Fatalf("a rank passed the barrier at %s, before the slowest entered (%s)", ts, slowest)
		}
	}
}

func TestBcastAllRoots(t *testing.T) {
	for root := 0; root < 5; root++ {
		c, w := newWorld(t)
		payload := []byte(fmt.Sprintf("payload-from-%d", root))
		got := make([][]byte, w.Size())
		for i := 0; i < w.Size(); i++ {
			i := i
			c.K.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				var in []byte
				if i == root {
					in = payload
				}
				got[i] = w.Rank(i).Bcast(p, root, in)
			})
		}
		run(t, c)
		for i, g := range got {
			if !bytes.Equal(g, payload) {
				t.Fatalf("root %d: rank %d got %q", root, i, g)
			}
		}
	}
}

func TestGather(t *testing.T) {
	c, w := newWorld(t)
	var got [][]byte
	for i := 0; i < w.Size(); i++ {
		i := i
		c.K.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			res := w.Rank(i).Gather(p, 2, []byte{byte(i), byte(i * 2)})
			if i == 2 {
				got = res
			} else if res != nil {
				p.Fatalf("non-root got a result")
			}
		})
	}
	run(t, c)
	if len(got) != 5 {
		t.Fatalf("gathered %d", len(got))
	}
	for i, g := range got {
		if len(g) != 2 || g[0] != byte(i) || g[1] != byte(i*2) {
			t.Fatalf("contribution %d = %v", i, g)
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	c, w := newWorld(t)
	sum := func(acc, in []byte) {
		a := binary.BigEndian.Uint64(acc)
		b := binary.BigEndian.Uint64(in)
		binary.BigEndian.PutUint64(acc, a+b)
	}
	results := make([]uint64, w.Size())
	for i := 0; i < w.Size(); i++ {
		i := i
		c.K.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			contrib := make([]byte, 8)
			binary.BigEndian.PutUint64(contrib, uint64(i+1))
			out := w.Rank(i).Allreduce(p, contrib, sum)
			results[i] = binary.BigEndian.Uint64(out)
		})
	}
	run(t, c)
	for i, r := range results {
		if r != 15 { // 1+2+3+4+5
			t.Fatalf("rank %d allreduce = %d, want 15", i, r)
		}
	}
}

func TestWorldValidation(t *testing.T) {
	c, _ := cluster.New(cluster.Spec{CellNodes: 1})
	if _, err := NewWorld(c, []Placement{{Node: 5}}); err == nil {
		t.Fatal("bad placement accepted")
	}
}
