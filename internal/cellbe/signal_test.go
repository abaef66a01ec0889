package cellbe

import (
	"testing"

	"cellpilot/internal/sim"
)

func TestSignalModesDirect(t *testing.T) {
	k := sim.NewKernel(1)
	spe, _ := newTestNode(k).SPE(0)
	or, ow := spe.SNR1, spe.SNR2
	if or.Mode() != SignalOR || ow.Mode() != SignalOverwrite {
		t.Fatal("modes wrong")
	}
	k.Spawn("writer", func(p *sim.Proc) {
		or.Write(p, 0b001)
		or.Write(p, 0b100)
		ow.Write(p, 11)
		ow.Write(p, 22)
		if or.Pending() != 0b101 || ow.Pending() != 22 {
			p.Fatalf("pending or=%#b ow=%d", or.Pending(), ow.Pending())
		}
		if v, ok := or.TryRead(p); !ok || v != 0b101 {
			p.Fatalf("tryread %d %v", v, ok)
		}
		if _, ok := or.TryRead(p); ok {
			p.Fatalf("tryread after clear succeeded")
		}
		if v := ow.Read(p); v != 22 {
			p.Fatalf("read %d", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalBlockingReadDirect(t *testing.T) {
	k := sim.NewKernel(1)
	spe, _ := newTestNode(k).SPE(0)
	s := spe.SNR1
	var at sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		if v := s.Read(p); v != 5 {
			p.Fatalf("got %d", v)
		}
		at = p.Now()
	})
	k.Spawn("writer", func(p *sim.Proc) {
		p.Advance(40 * sim.Microsecond)
		s.Write(p, 5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at < 40*sim.Microsecond {
		t.Fatalf("read returned at %s", at)
	}
}

func TestStringersAndHelpers(t *testing.T) {
	if ArchCell.String() != "cell" || ArchX86.String() != "x86" || Arch(9).String() == "" {
		t.Fatal("Arch.String wrong")
	}
	if KindPPE.String() != "PPE" || KindSPE.String() != "SPE" || KindCore.String() != "core" || ProcKind(9).String() == "" {
		t.Fatal("ProcKind.String wrong")
	}
	m := NewMemory(128)
	if m.Size() != 128 {
		t.Fatal("Size wrong")
	}
	if _, err := m.Alloc(64, 16); err != nil {
		t.Fatal(err)
	}
	if m.InUse() != 64 {
		t.Fatalf("InUse = %d", m.InUse())
	}
	if _, err := m.Alloc(-1, 1); err == nil {
		t.Fatal("negative alloc accepted")
	}
	par := DefaultParams()
	if par.ShmCopyTime(0) <= 0 || par.ShmCopyTime(1<<20) <= par.ShmCopyTime(1) {
		t.Fatal("ShmCopyTime not sane")
	}
}
