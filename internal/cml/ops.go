package cml

import (
	"encoding/binary"

	"cellpilot/internal/cellbe"
)

// rank-side helpers: every operation stages payload bytes in the SPE
// local store, DMAs them to/from the rank's main-memory staging buffer,
// and exchanges two-word descriptors with the node's router through the
// hardware mailboxes — the receiver-initiated protocol of the CML paper.

func (c *Ctx) fail(format string, args ...any) {
	c.P.Fatalf("cml: rank %d: "+format, append([]any{c.rs.id}, args...)...)
}

// stageOut copies data into LS and DMAs it to the staging buffer.
func (c *Ctx) stageOut(data []byte) {
	if len(data) == 0 || len(data) > MaxMessage {
		c.fail("message of %d bytes out of range (1..%d)", len(data), MaxMessage)
	}
	size := cellbe.Align(len(data), 16)
	lsAddr, err := c.rs.spe.LS.Alloc("cml-out", size, 128)
	if err != nil {
		c.fail("%v", err)
	}
	defer c.rs.spe.LS.Release()
	if err := c.rs.spe.LS.CopyIn(lsAddr, data); err != nil {
		c.fail("%v", err)
	}
	if err := c.rs.sctx.MFCPut(c.P, lsAddr, c.rs.staging, size, 1); err != nil {
		c.fail("%v", err)
	}
	c.rs.sctx.TagWait(c.P, 1<<1)
}

// stageIn DMAs size bytes from the staging buffer into LS and returns a
// copy.
func (c *Ctx) stageIn(size int) []byte {
	aligned := cellbe.Align(size, 16)
	lsAddr, err := c.rs.spe.LS.Alloc("cml-in", aligned, 128)
	if err != nil {
		c.fail("%v", err)
	}
	defer c.rs.spe.LS.Release()
	if err := c.rs.sctx.MFCGet(c.P, lsAddr, c.rs.staging, aligned, 2); err != nil {
		c.fail("%v", err)
	}
	c.rs.sctx.TagWait(c.P, 1<<2)
	out := make([]byte, size)
	if err := c.rs.spe.LS.CopyOut(lsAddr, out); err != nil {
		c.fail("%v", err)
	}
	return out
}

// request posts a two-word descriptor and nudges the router.
func (c *Ctx) request(op opcode, peer, size int) {
	c.rs.sctx.WriteOutMbox(c.P, word0(op, peer))
	c.w.routers[c.rs.node].nudge()
	c.rs.sctx.WriteOutMbox(c.P, uint32(size))
}

// ack blocks on the inbound mailbox for the router's reply.
func (c *Ctx) ack() uint32 { return c.rs.sctx.ReadInMbox(c.P) }

// Send transmits data to rank dst (MPI_Send; no tags in the CML subset).
func (c *Ctx) Send(dst int, data []byte) {
	c.stageOut(data)
	c.request(opSend, dst, len(data))
	c.ack()
}

// Recv receives the next message from rank src (MPI_Recv).
func (c *Ctx) Recv(src int) []byte {
	if src < 0 || src >= len(c.w.ranks) || src == c.rs.id {
		c.fail("recv from invalid rank %d", src)
	}
	c.request(opRecv, src, 0)
	size := int(c.ack())
	return c.stageIn(size)
}

// Bcast distributes root's data to every rank (hierarchical MPI_Bcast:
// the root's router fans out locally and over MPI to the other routers).
// The root passes the payload; others pass nil and receive it.
func (c *Ctx) Bcast(root int, data []byte) []byte {
	if c.rs.id == root {
		c.stageOut(data)
		c.request(opBcastRoot, root, len(data))
		c.ack()
		return data
	}
	c.request(opBcastRecv, root, 0)
	size := int(c.ack())
	return c.stageIn(size)
}

// ReduceInt32 combines every rank's int32 vector elementwise (sum) at
// root (hierarchical MPI_Reduce: local combining on each PPE router,
// partials to the root's router). The root gets the result; others nil.
func (c *Ctx) ReduceInt32(root int, contrib []int32) []int32 {
	wire := make([]byte, 4*len(contrib))
	for i, v := range contrib {
		binary.BigEndian.PutUint32(wire[i*4:], uint32(v))
	}
	c.stageOut(wire)
	if c.rs.id == root {
		c.request(opReduceRecv, root, len(wire))
		size := int(c.ack())
		out := c.stageIn(size)
		res := make([]int32, size/4)
		for i := range res {
			res[i] = int32(binary.BigEndian.Uint32(out[i*4:]))
		}
		return res
	}
	c.request(opReduceSend, root, len(wire))
	c.ack()
	return nil
}

// AllreduceInt32 is Reduce to rank 0 followed by Bcast (CML's
// hierarchical MPI_Allreduce).
func (c *Ctx) AllreduceInt32(contrib []int32) []int32 {
	res := c.ReduceInt32(0, contrib)
	var wire []byte
	if c.rs.id == 0 {
		wire = make([]byte, 4*len(res))
		for i, v := range res {
			binary.BigEndian.PutUint32(wire[i*4:], uint32(v))
		}
	}
	out := c.Bcast(0, wire)
	final := make([]int32, len(out)/4)
	for i := range final {
		final[i] = int32(binary.BigEndian.Uint32(out[i*4:]))
	}
	return final
}

// Barrier synchronizes every rank (a 1-element Allreduce, as small CML
// deployments do).
func (c *Ctx) Barrier() {
	c.AllreduceInt32([]int32{0})
}
