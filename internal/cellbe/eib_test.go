package cellbe

import (
	"fmt"
	"testing"

	"cellpilot/internal/sim"
)

// TestEIBContention drives all 8 SPEs of one Cell through simultaneous
// large DMAs and checks the bus arbitrates: completions spread out
// instead of finishing together, and total occupancy matches bandwidth.
func TestEIBContention(t *testing.T) {
	k := sim.NewKernel(1)
	par := DefaultParams()
	par.EIBBytesPerSec = 1e9 // slow the bus so serialization is visible
	n := NewCellNode(0, "c", 1, par, 8<<20)
	const size = 16 * 1024 // one max-size DMA each
	completions := make([]sim.Time, 8)
	for s := 0; s < 8; s++ {
		s := s
		spe, _ := n.SPE(s)
		ea, err := n.Mem.Alloc(size, 128)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn(fmt.Sprintf("spe%d", s), func(p *sim.Proc) {
			lsAddr, err := spe.LS.Alloc("buf", size, 128)
			if err != nil {
				p.Fatalf("%v", err)
			}
			if err := spe.MFC.Put(p, lsAddr, ea, size, 1); err != nil {
				p.Fatalf("%v", err)
			}
			spe.MFC.TagWait(p, 1<<1)
			completions[s] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialization per transfer at 1 GB/s: 16KB ≈ 16.4us. Eight queued
	// transfers must finish roughly one serialization apart.
	perXfer := sim.Time(float64(size) / par.EIBBytesPerSec * float64(sim.Second))
	min, max := completions[0], completions[0]
	for _, c := range completions {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min < 6*perXfer {
		t.Fatalf("EIB did not serialize: spread %s, per-transfer %s", max-min, perXfer)
	}
	if max < 8*perXfer {
		t.Fatalf("total occupancy %s below 8 serialized transfers (%s)", max, 8*perXfer)
	}
}
