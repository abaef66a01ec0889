// Command relay_dacs is the three-hop relay written against the DaCS
// baseline (dacs_remote_mem_create, dacs_put, dacs_wait, dacs_mailbox_*,
// dacs_send_to) — the style the paper reports at 114 lines. DaCS hides
// the DMA tags but still exposes remote-memory handles and the strict
// HE/AE hierarchy, and its 36 KB SPE library squeezes the local store.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/dacs"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
)

const (
	n      = 100
	nBytes = n * 4
	tagRMA = 3
	mbGo   = 0x60
	mbDone = 0x61
)

func produce(rt *dacs.Runtime, leaf *dacs.Element, rm *dacs.RemoteMem) *sdk.Program {
	return &sdk.Program{Name: "produce", Main: func(c *sdk.Context, _ int, _ any) {
		p := c.Proc
		size := cellbe.Align(nBytes, 16)
		lsAddr, err := c.SPE.LS.Alloc("out", size, 128)
		if err != nil {
			p.Fatalf("%v", err)
		}
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(buf[i*4:], uint32(i*i))
		}
		c.SPE.LS.CopyIn(lsAddr, buf)
		if err := leaf.Put(p, rm, 0, lsAddr, size, tagRMA); err != nil {
			p.Fatalf("dacs_put: %v", err)
		}
		leaf.Wait(p, tagRMA)
		leaf.MailboxWrite(p, leaf.Parent, mbDone)
	}}
}

func consume(rt *dacs.Runtime, leaf *dacs.Element, rm *dacs.RemoteMem) *sdk.Program {
	return &sdk.Program{Name: "consume", Main: func(c *sdk.Context, _ int, _ any) {
		p := c.Proc
		size := cellbe.Align(nBytes, 16)
		lsAddr, err := c.SPE.LS.Alloc("in", size, 128)
		if err != nil {
			p.Fatalf("%v", err)
		}
		if v, _ := leaf.MailboxRead(p, leaf.Parent); v != mbGo {
			p.Fatalf("unexpected mailbox %#x", v)
		}
		if err := leaf.Get(p, rm, 0, lsAddr, size, tagRMA); err != nil {
			p.Fatalf("dacs_get: %v", err)
		}
		leaf.Wait(p, tagRMA)
		buf := make([]byte, size)
		c.SPE.LS.CopyOut(lsAddr, buf)
		sum := int64(0)
		for i := 0; i < n; i++ {
			sum += int64(int32(binary.BigEndian.Uint32(buf[i*4:])))
		}
		fmt.Printf("consume SPE received %d ints, sum=%d\n", n, sum)
	}}
}

func main() {
	clu, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := dacs.NewTopology(clu)
	if err != nil {
		log.Fatal(err)
	}
	heA, heB := rt.Root.Children[0], rt.Root.Children[1]
	leafA, leafB := heA.Children[0], heB.Children[0]

	stagingA, _ := heA.Node.Mem.Alloc(cellbe.Align(nBytes, 16), 128)
	rmA, err := rt.RemoteMemCreate(heA.Node, stagingA, cellbe.Align(nBytes, 16))
	if err != nil {
		log.Fatal(err)
	}
	stagingB, _ := heB.Node.Mem.Alloc(cellbe.Align(nBytes, 16), 128)
	rmB, err := rt.RemoteMemCreate(heB.Node, stagingB, cellbe.Align(nBytes, 16))
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.StartProgram(leafA, produce(rt, leafA, rmA), 0, nil); err != nil {
		log.Fatal(err)
	}
	if err := rt.StartProgram(leafB, consume(rt, leafB, rmB), 0, nil); err != nil {
		log.Fatal(err)
	}

	// DaCSH only allows parent<->child messaging, so the PPE-to-PPE hop
	// must route through the cluster HE: A -> root -> B.
	clu.K.Spawn("heA", func(p *sim.Proc) {
		if v, _ := heA.MailboxRead(p, leafA); v != mbDone {
			p.Fatalf("unexpected mailbox %#x", v)
		}
		win := make([]byte, nBytes)
		heA.Node.Mem.CopyOut(stagingA, win)
		if err := heA.SendTo(p, rt.Root, win); err != nil {
			p.Fatalf("dacs_send_to: %v", err)
		}
		rmA.Release()
	})
	clu.K.Spawn("rootHE", func(p *sim.Proc) {
		data, err := rt.Root.RecvFrom(p, heA)
		if err != nil {
			p.Fatalf("dacs_recv_from: %v", err)
		}
		if err := rt.Root.SendTo(p, heB, data); err != nil {
			p.Fatalf("dacs_send_to: %v", err)
		}
	})
	clu.K.Spawn("heB", func(p *sim.Proc) {
		data, err := heB.RecvFrom(p, rt.Root)
		if err != nil {
			p.Fatalf("dacs_recv_from: %v", err)
		}
		heB.Node.Mem.CopyIn(stagingB, data)
		heB.MailboxWrite(p, leafB, mbGo)
		leafB.Ctx.Done.Wait(p)
		rmB.Release()
	})
	if err := clu.K.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-hop relay done in %s of virtual time\n", clu.K.Now())
}
