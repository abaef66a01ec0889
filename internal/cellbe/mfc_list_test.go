package cellbe

import (
	"bytes"
	"testing"

	"cellpilot/internal/sim"
)

func TestDMAListScatterGather(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewCellNode(k, 0, "c", 1, DefaultParams(), 1<<20)
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
	n := NewCellNode(k, 0, "c", 1, DefaultParams(), 1<<20)
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
