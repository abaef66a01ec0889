package interconnect

import (
	"math"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

func newNet(t *testing.T, nodes int) (*sim.Kernel, *Network, *cellbe.Params) {
	t.Helper()
	k := sim.NewKernel(1)
	par := cellbe.DefaultParams()
	return k, New(k, par, nodes), par
}

func TestOneWayTimeComposition(t *testing.T) {
	_, n, par := newNet(t, 2)
	got := n.OneWayTime(1600)
	want := par.LinkStartup + sim.Time(math.Ceil(float64(1600)/par.NetBytesPerSec*float64(sim.Second))) + par.NetLatency
	if got != want {
		t.Fatalf("OneWayTime = %s, want %s", got, want)
	}
	if n.SerializationTime(0) != par.LinkStartup {
		t.Fatalf("zero-byte serialization should be just startup")
	}
}

func TestSelfSendErrors(t *testing.T) {
	k, n, _ := newNet(t, 2)
	k.Spawn("bad", func(p *sim.Proc) {
		if _, err := n.Send(p, 0, 0, 10); err == nil {
			p.Fatalf("self-send did not error")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	k, n, _ := newNet(t, 2)
	k.Spawn("bad", func(p *sim.Proc) {
		if _, err := n.Send(p, 0, 5, 10); err == nil {
			p.Fatalf("unknown-node send did not error")
		}
		if _, err := n.Reserve(5, 0, 10); err == nil {
			p.Fatalf("unknown-node reserve did not error")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctSendersDoNotQueueOnEachOther(t *testing.T) {
	k, n, _ := newNet(t, 3)
	var a1, a2 sim.Time
	k.Spawn("s0", func(p *sim.Proc) { a1, _ = n.Send(p, 0, 2, 100000) })
	k.Spawn("s1", func(p *sim.Proc) { a2, _ = n.Send(p, 1, 2, 100000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("independent NICs must not serialize: %s vs %s", a1, a2)
	}
}

func TestStatsAccumulate(t *testing.T) {
	k, n, _ := newNet(t, 2)
	k.Spawn("s", func(p *sim.Proc) {
		n.Send(p, 0, 1, 10)
		n.Send(p, 1, 0, 20)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := n.Stats()
	if msgs != 2 || bytes != 30 {
		t.Fatalf("stats = %d msgs, %d bytes", msgs, bytes)
	}
}
