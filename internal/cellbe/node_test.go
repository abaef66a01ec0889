package cellbe

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

func newTestNode(k *sim.Kernel) *Node {
	return NewCellNode(0, "cell0", 2, DefaultParams(), 1<<20)
}

func TestNodeTopology(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(k)
	if len(n.Cells) != 2 || len(n.SPEs()) != 16 {
		t.Fatalf("cells=%d spes=%d, want 2/16", len(n.Cells), len(n.SPEs()))
	}
	spe, err := n.SPE(11)
	if err != nil {
		t.Fatal(err)
	}
	if spe.Cell.Index != 1 || spe.Index != 3 {
		t.Fatalf("SPE(11) = cell %d spe %d", spe.Cell.Index, spe.Index)
	}
	if _, err := n.SPE(16); err == nil {
		t.Fatal("SPE(16) on 2-cell blade should not exist")
	}
	x := NewX86Node(1, "xeon0", 8, DefaultParams(), 1<<20)
	if x.Arch != ArchX86 || len(x.SPEs()) != 0 || x.Cores != 8 {
		t.Fatalf("xeon node wrong: %+v", x)
	}
	if x.Arch.BigEndian() || !n.Arch.BigEndian() {
		t.Fatal("endianness mapping wrong")
	}
}

// TestUnusedSPEHoldsNothing: reading an SPE's mailboxes, signals and MFC
// creates none of the parts a used SPE needs: no mailbox queue and no tag
// table.
func TestUnusedSPEHoldsNothing(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(k)
	k.Spawn("reader", func(p *sim.Proc) {
		for _, spe := range n.SPEs() {
			for _, m := range []*Mailbox{spe.InMbox, spe.OutMbox} {
				if _, ok := m.TryRead(p); ok || m.Count() != 0 || m.HighWater() != 0 {
					p.Fatalf("%s: unused mailbox reads as used", spe.Name())
				}
			}
			if spe.InMbox.Capacity() != 4 || spe.OutMbox.Capacity() != 1 {
				p.Fatalf("%s: mailbox capacities %d/%d, want 4/1", spe.Name(), spe.InMbox.Capacity(), spe.OutMbox.Capacity())
			}
			if spe.SNR1.Mode() != SignalOR || spe.SNR2.Mode() != SignalOverwrite {
				p.Fatalf("%s: signal modes wrong", spe.Name())
			}
			for _, s := range []*Signal{spe.SNR1, spe.SNR2} {
				if _, ok := s.TryRead(p); ok || s.Pending() != 0 {
					p.Fatalf("%s: unused signal reads as written", spe.Name())
				}
			}
			start := p.Now()
			spe.MFC.TagWait(p, ^uint32(0))
			if p.Now() != start {
				p.Fatalf("%s: TagWait with no transfer advanced the clock", spe.Name())
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, spe := range n.SPEs() {
		if spe.InMbox.q != nil || spe.OutMbox.q != nil || spe.MFC.completion != nil {
			t.Fatalf("%s: reads created a queue or a tag table", spe.Name())
		}
	}
}

// TestSPEPartsKeepTheirNames: a wait that deadlocks on an SPE's mailbox
// or signal, and a second reader of a signal, name the part as they always
// have, though the names are now built on first use.
func TestSPEPartsKeepTheirNames(t *testing.T) {
	for _, c := range []struct {
		body func(spe *SPE, p *sim.Proc)
		want string
	}{
		{func(spe *SPE, p *sim.Proc) { spe.InMbox.Read(p) }, "get on queue node0/spe0/in"},
		{func(spe *SPE, p *sim.Proc) { spe.OutMbox.Write(p, 1); spe.OutMbox.Write(p, 2) }, "put on queue node0/spe0/out"},
		{func(spe *SPE, p *sim.Proc) { spe.SNR1.Read(p) }, "read signal node0/spe0/snr1"},
		{func(spe *SPE, p *sim.Proc) { spe.SNR2.Read(p) }, "read signal node0/spe0/snr2"},
	} {
		k := sim.NewKernel(1)
		spe, _ := NewCellNode(0, "node0", 1, DefaultParams(), 1<<20).SPE(0)
		k.Spawn("stuck", func(p *sim.Proc) { c.body(spe, p) })
		var dl *sim.ErrDeadlock
		if err := k.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0].Reason != c.want {
			t.Errorf("deadlock %v, want one proc blocked on %q", err, c.want)
		}
	}
	k := sim.NewKernel(1)
	spe, _ := NewCellNode(0, "node0", 1, DefaultParams(), 1<<20).SPE(0)
	k.Spawn("first", func(p *sim.Proc) { spe.SNR1.Read(p) })
	k.Spawn("second", func(p *sim.Proc) { spe.SNR1.Read(p) })
	if err := k.Run(); err == nil || err.Error() != "cellbe: two readers on signal node0/spe0/snr1" {
		t.Fatalf("second reader: %v", err)
	}
}

func TestEAWindowMainMemory(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(k)
	addr, err := n.Mem.Alloc(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	w, err := n.EASegments(addr, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(w[0], []byte("hello"))
	w2 := make([]byte, 5)
	if err := n.Mem.CopyOut(addr, w2); err != nil || string(w2) != "hello" {
		t.Fatal("EA segments do not alias main memory")
	}
}

func TestEAWindowMapsLocalStore(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(k)
	spe, _ := n.SPE(9)
	lsAddr, err := spe.LS.Alloc("buf", 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	ea := spe.LSBase() + int64(lsAddr)
	if !IsLSMapped(ea) {
		t.Fatal("LS EA not recognized as mapped")
	}
	w, err := n.EASegments(ea, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(w[0], []byte("through the EA window"))
	direct := make([]byte, 21)
	if err := spe.LS.CopyOut(lsAddr, direct); err != nil || string(direct) != "through the EA window" {
		t.Fatal("EA segments do not alias the local store")
	}
	// Out-of-range LS access through EA must fail, and leave dst as it was.
	if segs, err := n.EASegments(spe.LSBase()+int64(spe.LS.Size())-8, 64, w[:1]); err == nil || len(segs) != 1 {
		t.Fatal("EA overrun of local store succeeded")
	}
	if _, err := n.EASegments(LSMapBase+99*LSMapStride, 4, nil); err == nil {
		t.Fatal("EA of nonexistent SPE succeeded")
	}
}

func TestMailboxBlocking(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(k)
	spe, _ := n.SPE(0)
	var got []uint32
	k.Spawn("spe", func(p *sim.Proc) {
		// Outbound mailbox has 1 entry: second write stalls until drained.
		spe.OutMbox.Write(p, 100)
		spe.OutMbox.Write(p, 200)
	})
	k.Spawn("ppe", func(p *sim.Proc) {
		p.Advance(50 * sim.Microsecond)
		got = append(got, spe.OutMbox.Read(p))
		got = append(got, spe.OutMbox.Read(p))
		if v, ok := spe.OutMbox.TryRead(p); ok {
			p.Fatalf("unexpected extra entry %d", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Fatalf("got %v", got)
	}
}

func TestMFCTransfersAndAlignment(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(k)
	spe, _ := n.SPE(3)
	mainAddr, _ := n.Mem.Alloc(4096, 128)
	var errs []string
	k.Spawn("spe", func(p *sim.Proc) {
		lsAddr, err := spe.LS.Alloc("buf", 1600, 128)
		if err != nil {
			p.Fatalf("%v", err)
		}
		w := make([]byte, 1600)
		for i := range w {
			w[i] = byte(i * 7)
		}
		if err := spe.LS.CopyIn(lsAddr, w); err != nil {
			p.Fatalf("%v", err)
		}
		if err := spe.MFC.Put(p, lsAddr, mainAddr, 1600, 5); err != nil {
			p.Fatalf("put: %v", err)
		}
		spe.MFC.TagWait(p, 1<<5)
		mw := make([]byte, 1600)
		if err := n.Mem.CopyOut(mainAddr, mw); err != nil || !bytes.Equal(mw, w) {
			p.Fatalf("DMA put corrupted data")
		}
		// Round-trip back into a second LS buffer.
		ls2, _ := spe.LS.Alloc("buf2", 1600, 128)
		if err := spe.MFC.Get(p, ls2, mainAddr, 1600, 6); err != nil {
			p.Fatalf("get: %v", err)
		}
		spe.MFC.TagWait(p, 1<<6)
		w2 := make([]byte, 1600)
		if err := spe.LS.CopyOut(ls2, w2); err != nil || !bytes.Equal(w2, w) {
			p.Fatalf("DMA get corrupted data")
		}

		// Alignment violations.
		if err := spe.MFC.Put(p, lsAddr+1, mainAddr, 32, 0); err == nil {
			errs = append(errs, "unaligned ls accepted")
		}
		if err := spe.MFC.Put(p, lsAddr, mainAddr+4, 32, 0); err == nil {
			errs = append(errs, "unaligned ea accepted")
		}
		if err := spe.MFC.Put(p, lsAddr, mainAddr, 24, 0); err == nil {
			errs = append(errs, "size 24 accepted")
		}
		if err := spe.MFC.Put(p, lsAddr, mainAddr, MaxDMASize+16, 0); err == nil {
			errs = append(errs, "oversize accepted")
		}
		if err := spe.MFC.Put(p, lsAddr+2, mainAddr+2, 2, 1); err != nil {
			errs = append(errs, "naturally aligned 2-byte rejected: "+err.Error())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatal(strings.Join(errs, "; "))
	}
}

func TestMFCTimingChargesSetup(t *testing.T) {
	k := sim.NewKernel(1)
	par := DefaultParams()
	n := NewCellNode(0, "cell0", 1, par, 1<<20)
	spe, _ := n.SPE(0)
	mainAddr, _ := n.Mem.Alloc(4096, 128)
	var elapsed sim.Time
	k.Spawn("spe", func(p *sim.Proc) {
		lsAddr, _ := spe.LS.Alloc("buf", 1600, 128)
		start := p.Now()
		if err := spe.MFC.Put(p, lsAddr, mainAddr, 1600, 0); err != nil {
			p.Fatalf("%v", err)
		}
		spe.MFC.TagWait(p, 1)
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < par.DMASetup {
		t.Fatalf("DMA elapsed %s < setup %s", elapsed, par.DMASetup)
	}
	// 1600 B over the EIB is nearly free: well under 1us of bandwidth time.
	if elapsed > par.DMASetup+2*sim.Microsecond {
		t.Fatalf("DMA of 1600B took %s, expected ~setup cost", elapsed)
	}
}

func TestParamsCostHelpers(t *testing.T) {
	p := DefaultParams()
	if p.PackTime(0) != 0 {
		t.Fatal("PackTime(0) != 0")
	}
	if p.PackTime(1<<20) <= 0 {
		t.Fatal("PackTime not increasing")
	}
	if p.MemcpyTime(0) != p.MemcpyLatency {
		t.Fatal("MemcpyTime(0) != latency")
	}
	if p.MemcpyTime(1600) <= p.MemcpyLatency {
		t.Fatal("MemcpyTime missing per-byte cost")
	}
}

func TestMemoryAllocator(t *testing.T) {
	m := NewMemory(1024)
	a, err := m.Alloc(100, 128)
	if err != nil || a != 0 {
		t.Fatalf("a=%d err=%v", a, err)
	}
	b, err := m.Alloc(100, 128)
	if err != nil || b != 128 {
		t.Fatalf("b=%d err=%v", b, err)
	}
	if _, err := m.Alloc(2048, 1); err == nil {
		t.Fatal("overflow alloc succeeded")
	}
	if err := m.Check(1000, 100); err == nil {
		t.Fatal("out-of-range check succeeded")
	}
}
