package dacs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cellpilot/internal/cluster"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
)

func newRT(t *testing.T) *Runtime {
	t.Helper()
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewTopology(c)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestFigure1Hierarchy(t *testing.T) {
	// E5: the DaCSH process hierarchy — one x86 HE, Cell PPEs as its AEs,
	// each the HE of its own 16 SPE AEs.
	rt := newRT(t)
	if rt.Root.Kind != KindClusterHE {
		t.Fatalf("root kind %d", rt.Root.Kind)
	}
	if len(rt.Root.Children) != 2 {
		t.Fatalf("cluster HE has %d AEs, want 2 Cell nodes", len(rt.Root.Children))
	}
	for _, cellHE := range rt.Root.Children {
		if cellHE.Kind != KindCellHE || len(cellHE.Children) != 16 {
			t.Fatalf("cell HE %s has %d children", cellHE.Name(), len(cellHE.Children))
		}
		for _, ae := range cellHE.Children {
			if ae.Kind != KindSPEAE || ae.Parent != cellHE {
				t.Fatalf("bad leaf %s", ae.Name())
			}
		}
	}
	if len(rt.Elements()) != 1+2+32 {
		t.Fatalf("%d elements", len(rt.Elements()))
	}
}

func TestNoSPEToSPE(t *testing.T) {
	// The paper's criticism (a): DaCS does not address SPE-to-SPE
	// communication.
	rt := newRT(t)
	cellHE := rt.Root.Children[0]
	s1, s2 := cellHE.Children[0], cellHE.Children[1]
	rt.K.Spawn("try", func(p *sim.Proc) {
		if err := s1.SendTo(p, s2, []byte("x")); !errors.Is(err, ErrNotSupported) {
			p.Fatalf("SPE->SPE send: %v", err)
		}
		if _, err := s1.MailboxRead(p, s2); !errors.Is(err, ErrNotSupported) {
			p.Fatalf("SPE->SPE mailbox: %v", err)
		}
		// Cross-subtree is equally forbidden.
		other := rt.Root.Children[1].Children[0]
		if err := s1.SendTo(p, other, nil); !errors.Is(err, ErrNotSupported) {
			p.Fatalf("cross-subtree send: %v", err)
		}
	})
	if err := rt.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteMemRejectsLocalStore(t *testing.T) {
	rt := newRT(t)
	cell := rt.Root.Children[0]
	spe := cell.Children[0].SPE
	if _, err := rt.RemoteMemCreate(cell.Node, spe.LSBase(), 64); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("LS-backed remote mem: %v", err)
	}
}

// TestRemoteMemCreateBacksNothing: publishing a region checks its bounds
// without backing a page of the node's main memory, and an out-of-range
// region keeps its error text.
func TestRemoteMemCreateBacksNothing(t *testing.T) {
	rt := newRT(t)
	node := rt.Root.Children[0].Node
	ea, _ := node.Mem.Alloc(4096, 128)
	if _, err := rt.RemoteMemCreate(node, ea, 4096); err != nil {
		t.Fatal(err)
	}
	end := int64(node.Mem.Size())
	want := fmt.Sprintf("cellbe: main memory access [%#x,+32) out of range", end-16)
	if _, err := rt.RemoteMemCreate(node, end-16, 32); err == nil || err.Error() != want {
		t.Fatalf("out-of-range region: %v, want %q", err, want)
	}
	if node.Mem.Backed() != 0 {
		t.Fatalf("RemoteMemCreate backed %d bytes of main memory", node.Mem.Backed())
	}
}

func TestPutGetWaitRoundTrip(t *testing.T) {
	rt := newRT(t)
	cellHE := rt.Root.Children[0]
	leaf := cellHE.Children[0]
	node := cellHE.Node
	ea, _ := node.Mem.Alloc(4096, 128)
	rm, err := rt.RemoteMemCreate(node, ea, 4096)
	if err != nil {
		t.Fatal(err)
	}
	prog := &sdk.Program{Name: "rma", Main: func(c *sdk.Context, arg int, env any) {
		p := c.Proc
		lsAddr, _ := c.SPE.LS.Alloc("buf", 256, 128)
		w := make([]byte, 256)
		for i := range w {
			w[i] = byte(i ^ 0x5a)
		}
		c.SPE.LS.CopyIn(lsAddr, w)
		if err := leaf.Put(p, rm, 0, lsAddr, 256, 1); err != nil {
			p.Fatalf("put: %v", err)
		}
		if err := leaf.Wait(p, 1); err != nil {
			p.Fatalf("wait: %v", err)
		}
		// Read it back into a second buffer and compare.
		ls2, _ := c.SPE.LS.Alloc("buf2", 256, 128)
		if err := leaf.Get(p, rm, 0, ls2, 256, 2); err != nil {
			p.Fatalf("get: %v", err)
		}
		leaf.Wait(p, 2)
		w2 := make([]byte, 256)
		if c.SPE.LS.CopyOut(ls2, w2); !bytes.Equal(w, w2) {
			p.Fatalf("round trip corrupted")
		}
		// Out-of-range put must fail.
		if err := leaf.Put(p, rm, 4000, lsAddr, 256, 3); err == nil {
			p.Fatalf("overrun accepted")
		}
	}}
	if err := rt.StartProgram(leaf, prog, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.K.Run(); err != nil {
		t.Fatal(err)
	}
	mw := make([]byte, 4)
	if node.Mem.CopyOut(ea, mw); mw[0] != 0x5a^0 || mw[1] != 1^0x5a {
		t.Fatal("put did not land in main memory")
	}
}

func TestDaCSFootprintSqueezesLS(t *testing.T) {
	// E4 behaviour: the same program that loads under CellPilot's 10336-
	// byte runtime fails under libdacs.a's 36600 bytes.
	rt := newRT(t)
	leaf := rt.Root.Children[0].Children[1]
	par := rt.Par
	prog := &sdk.Program{
		Name:     "big-app",
		CodeSize: par.LSSize - par.DaCSFootprint - par.StackReserve + 1,
		Main:     func(*sdk.Context, int, any) {},
	}
	if err := rt.StartProgram(leaf, prog, 0, nil); err == nil {
		t.Fatal("oversized program loaded under DaCS footprint")
	}
	ctx, err := sdk.ContextCreate(rt.K, leaf.SPE)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Load(prog, par.CellPilotFootprint); err != nil {
		t.Fatalf("same program should fit under CellPilot's footprint: %v", err)
	}
}

func TestHybridMessagePath(t *testing.T) {
	// Cluster HE <-> Cell HE messaging crosses the interconnect (DaCSH).
	rt := newRT(t)
	cellHE := rt.Root.Children[0]
	var elapsed sim.Time
	rt.K.Spawn("he", func(p *sim.Proc) {
		start := p.Now()
		if err := rt.Root.SendTo(p, cellHE, make([]byte, 1600)); err != nil {
			p.Fatalf("%v", err)
		}
		elapsed = p.Now() - start
	})
	rt.K.Spawn("ae", func(p *sim.Proc) {
		data, err := cellHE.RecvFrom(p, rt.Root)
		if err != nil || len(data) != 1600 {
			p.Fatalf("recv: %v len %d", err, len(data))
		}
	})
	if err := rt.K.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 100*sim.Microsecond {
		t.Fatalf("hybrid send took %s; should cross the network", elapsed)
	}
}
