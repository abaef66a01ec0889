package cellbe

import (
	"testing"
	"testing/quick"

	"cellpilot/internal/sim"
)

func TestMailboxCapacityMatchesHardware(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewCellNode(0, "c", 1, DefaultParams(), 1<<20)
	spe, _ := n.SPE(0)
	k.Spawn("probe", func(p *sim.Proc) {
		// Inbound mailbox: 4 entries before writes stall.
		for i := 0; i < 4; i++ {
			if !spe.InMbox.TryWrite(p, uint32(i)) {
				p.Fatalf("inbound entry %d rejected", i)
			}
		}
		if spe.InMbox.TryWrite(p, 99) {
			p.Fatalf("5th inbound entry accepted")
		}
		if spe.InMbox.Count() != 4 {
			p.Fatalf("count = %d", spe.InMbox.Count())
		}
		// Outbound mailbox: single entry.
		if !spe.OutMbox.TryWrite(p, 1) || spe.OutMbox.TryWrite(p, 2) {
			p.Fatalf("outbound capacity wrong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxChargesTime(t *testing.T) {
	k := sim.NewKernel(1)
	par := DefaultParams()
	n := NewCellNode(0, "c", 1, par, 1<<20)
	spe, _ := n.SPE(0)
	k.Spawn("timer", func(p *sim.Proc) {
		start := p.Now()
		spe.InMbox.Write(p, 1)
		if p.Now()-start != par.MailboxWrite {
			p.Fatalf("write cost %s", p.Now()-start)
		}
		start = p.Now()
		spe.InMbox.Read(p)
		if p.Now()-start != par.MailboxRead {
			p.Fatalf("read cost %s", p.Now()-start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of writes and reads preserves FIFO order
// through the 4-deep inbound mailbox.
func TestMailboxFIFOProperty(t *testing.T) {
	prop := func(vals []uint32) bool {
		if len(vals) > 50 {
			vals = vals[:50]
		}
		k := sim.NewKernel(3)
		n := NewCellNode(0, "c", 1, DefaultParams(), 1<<20)
		spe, _ := n.SPE(0)
		var got []uint32
		k.Spawn("writer", func(p *sim.Proc) {
			for _, v := range vals {
				spe.InMbox.Write(p, v)
			}
		})
		k.Spawn("reader", func(p *sim.Proc) {
			for range vals {
				got = append(got, spe.InMbox.Read(p))
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the EA map is a bijection between (SPE, offset) and EA for
// in-range addresses, and its segments alias the same storage.
func TestEAMapProperty(t *testing.T) {
	n := NewCellNode(0, "c", 2, DefaultParams(), 1<<20)
	prop := func(speIdx uint8, off uint32, val byte) bool {
		spe, err := n.SPE(int(speIdx) % 16)
		if err != nil {
			return false
		}
		offset := off % uint32(spe.LS.Size()-1)
		ea := spe.LSBase() + int64(offset)
		w, err := n.EASegments(ea, 1, nil)
		if err != nil || len(w) != 1 {
			return false
		}
		w[0][0] = val
		direct := make([]byte, 1)
		if err := spe.LS.CopyOut(offset, direct); err != nil {
			return false
		}
		return direct[0] == val
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
