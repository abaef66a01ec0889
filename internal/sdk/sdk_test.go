package sdk

import (
	"bytes"
	"strings"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

func newNode(t *testing.T) (*sim.Kernel, *cellbe.Node) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, cellbe.NewCellNode(0, "cell0", 1, cellbe.DefaultParams(), 1<<20)
}

func TestContextLifecycle(t *testing.T) {
	k, n := newNode(t)
	spe, _ := n.SPE(0)
	ctx, err := ContextCreate(k, spe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ContextCreate(k, spe); err == nil {
		t.Fatal("double context on one SPE accepted")
	}
	if err := ctx.Run(0, nil); err == nil {
		t.Fatal("Run before Load accepted")
	}
	ran := false
	prog := &Program{Name: "hello", Main: func(c *Context, arg int, env any) {
		if arg != 42 || env.(string) != "env" {
			panic("args not delivered")
		}
		ran = true
	}}
	if err := ctx.Load(prog, 10336); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Run(42, "env"); err != nil {
		t.Fatal(err)
	}
	k.Spawn("ppe", func(p *sim.Proc) {
		ctx.Done.Wait(p)
		if !ctx.Finished() {
			p.Fatalf("Done fired before Finished")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("program did not run")
	}
	ctx.Destroy()
	if _, err := ContextCreate(k, spe); err != nil {
		t.Fatalf("SPE not released: %v", err)
	}
}

func TestLoadRespectsLSBudget(t *testing.T) {
	k, n := newNode(t)
	spe, _ := n.SPE(1)
	ctx, _ := ContextCreate(k, spe)
	big := &Program{Name: "big", CodeSize: 250 * 1024}
	err := ctx.Load(big, 36600) // DaCS-sized runtime cannot fit this code
	if err == nil || !strings.Contains(err.Error(), "local store overflow") {
		t.Fatalf("err = %v", err)
	}
	ok := &Program{Name: "ok", CodeSize: 200 * 1024, Main: func(*Context, int, any) {}}
	if err := ctx.Load(ok, 10336); err != nil {
		t.Fatalf("CellPilot-sized runtime should fit 200K of code: %v", err)
	}
}

func TestMailboxHandshakeAndDMA(t *testing.T) {
	k, n := newNode(t)
	spe, _ := n.SPE(2)
	ctx, _ := ContextCreate(k, spe)
	mainBuf, _ := n.Mem.Alloc(1600, 128)

	prog := &Program{Name: "pingpong", Main: func(c *Context, arg int, env any) {
		p := c.Proc
		lsAddr, err := c.SPE.LS.Alloc("buf", 1600, 128)
		if err != nil {
			p.Fatalf("%v", err)
		}
		if err := c.SPE.LS.CopyIn(lsAddr, bytes.Repeat([]byte{byte(arg)}, 1600)); err != nil {
			p.Fatalf("%v", err)
		}
		// DMA the buffer out, then tell the PPE where it lives.
		if err := c.MFCPut(p, lsAddr, mainBuf, 1600, 3); err != nil {
			p.Fatalf("%v", err)
		}
		c.TagWait(p, 1<<3)
		c.WriteOutMbox(p, lsAddr)
		// Wait for the PPE's ack.
		if v := c.ReadInMbox(p); v != 0xAC0 {
			p.Fatalf("bad ack %#x", v)
		}
	}}
	if err := ctx.Load(prog, 10336); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Run(9, nil); err != nil {
		t.Fatal(err)
	}
	k.Spawn("ppe", func(p *sim.Proc) {
		lsAddr := ctx.ReadOutMbox(p)
		mw := make([]byte, 1600)
		if n.Mem.CopyOut(mainBuf, mw); !bytes.Equal(mw, bytes.Repeat([]byte{9}, 1600)) {
			p.Fatalf("DMA content wrong")
		}
		// The PPE can also see the SPE buffer through the EA map.
		ea := ctx.LSBase() + int64(lsAddr)
		segs, err := n.EASegments(ea, 1600, nil)
		if err != nil {
			p.Fatalf("%v", err)
		}
		if !bytes.Equal(bytes.Join(segs, nil), mw) {
			p.Fatalf("EA view differs from DMA copy")
		}
		ctx.WriteInMbox(p, 0xAC0)
		ctx.Done.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTryReadOutMboxPolling(t *testing.T) {
	k, n := newNode(t)
	spe, _ := n.SPE(3)
	ctx, _ := ContextCreate(k, spe)
	prog := &Program{Name: "late", Main: func(c *Context, arg int, env any) {
		c.Proc.Advance(100 * sim.Microsecond)
		c.WriteOutMbox(c.Proc, 55)
	}}
	if err := ctx.Load(prog, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	k.Spawn("poller", func(p *sim.Proc) {
		polls := 0
		for {
			if v, ok := ctx.TryReadOutMbox(p); ok {
				if v != 55 {
					p.Fatalf("got %d", v)
				}
				break
			}
			polls++
			p.Advance(10 * sim.Microsecond)
		}
		if polls == 0 {
			p.Fatalf("message was available immediately; polling untested")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleRunRejected(t *testing.T) {
	k, n := newNode(t)
	spe, _ := n.SPE(4)
	ctx, _ := ContextCreate(k, spe)
	blocker := sim.NewEvent(k, "hold")
	prog := &Program{Name: "spin", Main: func(c *Context, arg int, env any) {
		blocker.Wait(c.Proc)
	}}
	if err := ctx.Load(prog, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Run(0, nil); err == nil {
		t.Fatal("second Run accepted while running")
	}
	k.Spawn("release", func(p *sim.Proc) { blocker.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
