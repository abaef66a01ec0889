// Command relay_sdk is the same three-hop relay as relay_cellpilot —
// SPE A -> parent PPE -> remote PPE -> SPE B — hand-coded directly
// against the simulated Cell SDK (libspe2-style contexts, explicit DMA
// with tag groups and alignment, mailbox handshakes) and raw MPI, with no
// CellPilot. This is the style of code the paper reports at 186 lines,
// full of mfc_put, mfc_read_tag_status, spu_write_out_mbox and friends;
// every buffer address, alignment rule and synchronization step is the
// programmer's problem.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
)

const (
	n        = 100
	nBytes   = n * 4
	dmaAlign = 128 // optimal DMA alignment: quad-word minimum, 128 preferred
	tagOut   = 1
	tagIn    = 2
	mboxDone = 0x00D1
	mboxGo   = 0x00D2
)

// encode packs the int32 array into the staging buffer layout the PPEs
// exchange (big-endian, the Cell's byte order).
func encode(dst []byte, src []int32) {
	for i, v := range src {
		binary.BigEndian.PutUint32(dst[i*4:], uint32(v))
	}
}

func decode(dst []int32, src []byte) {
	for i := range dst {
		dst[i] = int32(binary.BigEndian.Uint32(src[i*4:]))
	}
}

// produceProgram fills an aligned LS buffer, DMAs it to the staging area
// the PPE advertised through the mailbox, and signals completion.
func produceProgram(stagingEA int64) *sdk.Program {
	return &sdk.Program{Name: "produce", Main: func(c *sdk.Context, _ int, _ any) {
		p := c.Proc
		size := cellbe.Align(nBytes, 16) // DMA size must be a multiple of 16
		lsAddr, err := c.SPE.LS.Alloc("out", size, dmaAlign)
		if err != nil {
			p.Fatalf("LS alloc: %v", err)
		}
		data := make([]int32, n)
		for i := range data {
			data[i] = int32(i * i)
		}
		buf := make([]byte, size)
		encode(buf, data)
		if err := c.SPE.LS.CopyIn(lsAddr, buf); err != nil {
			p.Fatalf("LS write: %v", err)
		}
		// mfc_put to the PPE's staging buffer, then wait on the tag group.
		if err := c.MFCPut(p, lsAddr, stagingEA, size, tagOut); err != nil {
			p.Fatalf("mfc_put: %v", err)
		}
		c.TagWait(p, 1<<tagOut)
		// spu_write_out_mbox: tell the PPE the data is in main storage.
		c.WriteOutMbox(p, mboxDone)
	}}
}

// consumeProgram waits for the PPE's go signal, DMAs the staging buffer
// into local store, and checks the payload.
func consumeProgram(stagingEA int64) *sdk.Program {
	return &sdk.Program{Name: "consume", Main: func(c *sdk.Context, _ int, _ any) {
		p := c.Proc
		size := cellbe.Align(nBytes, 16)
		lsAddr, err := c.SPE.LS.Alloc("in", size, dmaAlign)
		if err != nil {
			p.Fatalf("LS alloc: %v", err)
		}
		// spu_read_in_mbox: block until the PPE says the data is staged.
		if v := c.ReadInMbox(p); v != mboxGo {
			p.Fatalf("unexpected mailbox value %#x", v)
		}
		if err := c.MFCGet(p, lsAddr, stagingEA, size, tagIn); err != nil {
			p.Fatalf("mfc_get: %v", err)
		}
		c.TagWait(p, 1<<tagIn)
		buf := make([]byte, size)
		c.SPE.LS.CopyOut(lsAddr, buf)
		data := make([]int32, n)
		decode(data, buf)
		sum := int64(0)
		for _, v := range data {
			sum += int64(v)
		}
		fmt.Printf("consume SPE received %d ints, sum=%d\n", n, sum)
	}}
}

func main() {
	clu, err := cluster.New(cluster.Spec{CellNodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	world, err := mpi.NewWorld(clu, []mpi.Placement{
		{Node: 0, Label: "ppeA"},
		{Node: 1, Label: "ppeB"},
	})
	if err != nil {
		log.Fatal(err)
	}
	nodeA, nodeB := clu.Nodes[0], clu.Nodes[1]

	// Each PPE allocates an aligned staging buffer in main storage.
	stagingA, err := nodeA.Mem.Alloc(cellbe.Align(nBytes, 16), dmaAlign)
	if err != nil {
		log.Fatal(err)
	}
	stagingB, err := nodeB.Mem.Alloc(cellbe.Align(nBytes, 16), dmaAlign)
	if err != nil {
		log.Fatal(err)
	}

	// spe_context_create / spe_program_load on each node.
	speA, _ := nodeA.SPE(0)
	ctxA, err := sdk.ContextCreate(clu.K, speA)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctxA.Load(produceProgram(stagingA), 0); err != nil {
		log.Fatal(err)
	}
	speB, _ := nodeB.SPE(0)
	ctxB, err := sdk.ContextCreate(clu.K, speB)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctxB.Load(consumeProgram(stagingB), 0); err != nil {
		log.Fatal(err)
	}

	// PPE A: run the producer SPE, wait for its mailbox, forward the
	// staging buffer to PPE B over MPI.
	clu.K.Spawn("ppeA", func(p *sim.Proc) {
		if err := ctxA.Run(0, nil); err != nil {
			p.Fatalf("spe_context_run: %v", err)
		}
		if v := ctxA.ReadOutMbox(p); v != mboxDone {
			p.Fatalf("unexpected mailbox value %#x", v)
		}
		segs, err := nodeA.Mem.Segments(stagingA, nBytes, nil)
		if err != nil {
			p.Fatalf("staging: %v", err)
		}
		world.Rank(0).SendVec(p, 1, 0, segs...)
		ctxA.Done.Wait(p)
		ctxA.Destroy()
	})

	// PPE B: receive into its staging buffer, start the consumer SPE and
	// signal it through the mailbox.
	clu.K.Spawn("ppeB", func(p *sim.Proc) {
		segs, err := nodeB.Mem.Segments(stagingB, nBytes, nil)
		if err != nil {
			p.Fatalf("staging: %v", err)
		}
		if st := world.Rank(1).RecvIntoVec(p, 0, 0, segs...); st.Count != nBytes {
			p.Fatalf("short receive: %d bytes", st.Count)
		}
		if err := ctxB.Run(0, nil); err != nil {
			p.Fatalf("spe_context_run: %v", err)
		}
		ctxB.WriteInMbox(p, mboxGo)
		ctxB.Done.Wait(p)
		ctxB.Destroy()
	})

	if err := clu.K.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-hop relay done in %s of virtual time\n", clu.K.Now())
}
