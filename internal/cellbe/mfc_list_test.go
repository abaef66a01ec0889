package cellbe

import (
	"bytes"
	"testing"

	"cellpilot/internal/sim"
)

func TestDMAListScatterGather(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewCellNode(0, "c", 1, DefaultParams(), 1<<20)
	spe, _ := n.SPE(0)
	// Three scattered main-memory regions.
	ea1, _ := n.Mem.Alloc(256, 128)
	ea2, _ := n.Mem.Alloc(256, 128)
	ea3, _ := n.Mem.Alloc(256, 128)
	list := []ListElement{{EA: ea1, Size: 64}, {EA: ea2, Size: 128}, {EA: ea3, Size: 32}}

	k.Spawn("spe", func(p *sim.Proc) {
		lsAddr, _ := spe.LS.Alloc("buf", 224, 128)
		w := make([]byte, 224)
		for i := range w {
			w[i] = byte(i + 1)
		}
		if err := spe.LS.CopyIn(lsAddr, w); err != nil {
			p.Fatalf("%v", err)
		}
		if err := spe.MFC.PutList(p, lsAddr, list, 4); err != nil {
			p.Fatalf("putl: %v", err)
		}
		spe.MFC.TagWait(p, 1<<4)
		// Scatter landed contiguous pieces at each EA.
		w1, w2, w3 := make([]byte, 64), make([]byte, 128), make([]byte, 32)
		n.Mem.CopyOut(ea1, w1)
		n.Mem.CopyOut(ea2, w2)
		n.Mem.CopyOut(ea3, w3)
		if !bytes.Equal(w1, w[:64]) || !bytes.Equal(w2, w[64:192]) || !bytes.Equal(w3, w[192:224]) {
			p.Fatalf("scatter wrong")
		}
		// Gather back into a second buffer and compare.
		ls2, _ := spe.LS.Alloc("buf2", 224, 128)
		if err := spe.MFC.GetList(p, ls2, list, 5); err != nil {
			p.Fatalf("getl: %v", err)
		}
		spe.MFC.TagWait(p, 1<<5)
		g := make([]byte, 224)
		if err := spe.LS.CopyOut(ls2, g); err != nil || !bytes.Equal(g, w) {
			p.Fatalf("gather wrong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDMAListValidation(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewCellNode(0, "c", 1, DefaultParams(), 1<<20)
	spe, _ := n.SPE(0)
	ea, _ := n.Mem.Alloc(4096, 128)
	k.Spawn("spe", func(p *sim.Proc) {
		lsAddr, _ := spe.LS.Alloc("buf", 4096, 128)
		if err := spe.MFC.PutList(p, lsAddr, nil, 0); err == nil {
			p.Fatalf("empty list accepted")
		}
		big := make([]ListElement, maxDMAListSize+1)
		for i := range big {
			big[i] = ListElement{EA: ea, Size: 16}
		}
		if err := spe.MFC.PutList(p, lsAddr, big, 0); err == nil {
			p.Fatalf("oversized list accepted")
		}
		// An invalid element mid-list must reject the whole list before
		// any byte moves.
		n.Mem.CopyIn(ea, []byte{0xEE})
		bad := []ListElement{
			{EA: ea, Size: 16},
			{EA: ea + 3, Size: 16}, // misaligned
		}
		spe.LS.CopyIn(lsAddr, []byte{0x11})
		if err := spe.MFC.PutList(p, lsAddr, bad, 0); err == nil {
			p.Fatalf("misaligned element accepted")
		}
		w := make([]byte, 1)
		if n.Mem.CopyOut(ea, w); w[0] != 0xEE {
			p.Fatalf("half-applied DMA list")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDMAListAllOrNothing: a list whose last element's effective address
// lies out of range fails before any element moves a byte, whether the
// range is in main memory or in another SPE's mapped local store, and
// backs no page; the error is the one that element's transfer reports.
func TestDMAListAllOrNothing(t *testing.T) {
	k := sim.NewKernel(1)
	par := DefaultParams()
	const memSize = 1 << 20
	n := NewCellNode(0, "c", 1, par, memSize)
	spe, _ := n.SPE(0)
	peer, _ := n.SPE(1)
	snapshot := func() (ls, mem []byte, backed int) {
		ls, mem = make([]byte, par.LSSize), make([]byte, memSize)
		spe.LS.CopyOut(0, ls)
		n.Mem.CopyOut(0, mem)
		return ls, mem, spe.LS.Backed() + peer.LS.Backed() + n.Mem.Backed()
	}
	k.Spawn("spe", func(p *sim.Proc) {
		lsAddr, _ := spe.LS.Alloc("buf", 256, 128)
		spe.LS.CopyIn(lsAddr, bytes.Repeat([]byte{0x11}, 256))
		ea, _ := n.Mem.Alloc(64, 128)
		n.Mem.CopyIn(ea, bytes.Repeat([]byte{0xEE}, 64))
		far := int64(8 * PageSize) // a main-memory page nothing has touched
		for _, c := range []struct {
			put  bool
			last ListElement
			want string
		}{
			{true, ListElement{EA: memSize - 16, Size: 32},
				"cellbe: main memory access [0xffff0,+32) out of range"},
			{false, ListElement{EA: peer.LSBase() + int64(par.LSSize) - 16, Size: 32},
				"cellbe: EA range [0x30013fff0,+32) exceeds c/spe1 local store"},
		} {
			list := []ListElement{{EA: ea, Size: 64}, {EA: far, Size: 64}, {EA: peer.LSBase(), Size: 64}, c.last}
			ls0, mem0, backed0 := snapshot()
			var err error
			if c.put {
				err = spe.MFC.PutList(p, lsAddr, list, 0)
			} else {
				err = spe.MFC.GetList(p, lsAddr, list, 0)
			}
			if err == nil || err.Error() != c.want {
				p.Fatalf("put=%v: error %v, want %q", c.put, err, c.want)
			}
			ls1, mem1, backed1 := snapshot()
			if !bytes.Equal(ls0, ls1) || !bytes.Equal(mem0, mem1) || backed1 != backed0 {
				p.Fatalf("put=%v: a rejected list moved bytes or backed pages (%d -> %d backed bytes)", c.put, backed0, backed1)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
