package cml

import (
	"encoding/binary"
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sim"
)

// Rank-side mailbox descriptors: two 32-bit words, opcode|peer then size.
type opcode uint32

const (
	opSend opcode = iota + 1
	opRecv
	opBcastRoot
	opBcastRecv
	opReduceSend
	opReduceRecv
)

// cmlDispatch is the router's per-descriptor processing cost: CML is a
// lean special-purpose runtime, far cheaper than the general Co-Pilot.
const cmlDispatch = 5 * sim.Microsecond

func word0(op opcode, peer int) uint32 { return uint32(op)<<24 | uint32(peer&0xFFFFFF) }

func parseWord0(w uint32) (opcode, int) { return opcode(w >> 24), int(w & 0xFFFFFF) }

// Router-router MPI tags encode (kind, src-or-root).
func sendTag(src, dst int) int   { return 1<<18 | src<<9 | dst }
func bcastTag(root int) int      { return 2<<18 | root }
func reducePartial(root int) int { return 3<<18 | root }

// router is the per-Cell-node PPE process CML reserves for itself.
type router struct {
	w     *World
	idx   int
	node  *cellbe.Node
	rank  *mpi.Rank
	local []*rankState
	q     *sim.Queue[struct{}]

	shutdown bool
	// Matching state.
	sends  map[[2]int][]*queuedSend
	recvs  map[[2]int][]*rankState
	bcasts map[int][]*bcastMsg // root -> FIFO of messages being fanned out
	bwait  map[int][]*rankState
	reduce map[int]*reduceOp // root -> in-progress reduction
	rwait  map[int]*rankState
	// segs and peerSegs list the staging pages one step moves; reused.
	segs, peerSegs [][]byte
}

// queuedSend is one message waiting for its receiver: a local sender's
// staging reference (sender acked only on delivery — receiver-initiated
// semantics) or an arrived remote payload.
type queuedSend struct {
	data []byte     // remote payload; nil when src is set
	src  *rankState // local sender, acked at delivery
	size int
}

type bcastMsg struct {
	data      []byte
	remaining int
}

type reduceOp struct {
	acc          []byte
	localGot     int
	partialsGot  int
	rootDeliverd bool
}

func newRouter(w *World, idx int, node *cellbe.Node, rank *mpi.Rank) *router {
	rt := &router{
		w: w, idx: idx, node: node, rank: rank,
		q:      sim.NewQueue[struct{}](w.clu.K, fmt.Sprintf("cml-router%d/events", idx), 1<<14),
		sends:  map[[2]int][]*queuedSend{},
		recvs:  map[[2]int][]*rankState{},
		bcasts: map[int][]*bcastMsg{},
		bwait:  map[int][]*rankState{},
		reduce: map[int]*reduceOp{},
		rwait:  map[int]*rankState{},
	}
	rank.OnArrival(func() { rt.q.TryPut(struct{}{}) })
	return rt
}

func (rt *router) nudge() { rt.q.TryPut(struct{}{}) }

func (rt *router) fail(p *sim.Proc, format string, args ...any) {
	err := fmt.Errorf("cml: "+format, args...)
	rt.w.errs = append(rt.w.errs, err)
	p.Fatalf("%v", err)
}

// staging returns the page segments of rank rs's first size staging
// bytes, in dst's storage.
func (rt *router) staging(p *sim.Proc, rs *rankState, size int, dst [][]byte) [][]byte {
	segs, err := rt.w.clu.Nodes[rt.node.ID].Mem.Segments(rs.staging, size, dst[:0])
	if err != nil {
		rt.fail(p, "staging: %v", err)
	}
	return segs
}

// toStaging copies data into rank rs's staging buffer.
func (rt *router) toStaging(p *sim.Proc, rs *rankState, data []byte) {
	if err := rt.w.clu.Nodes[rt.node.ID].Mem.CopyIn(rs.staging, data); err != nil {
		rt.fail(p, "staging: %v", err)
	}
}

// fromStaging returns a copy of rank rs's first size staging bytes.
func (rt *router) fromStaging(p *sim.Proc, rs *rankState, size int) []byte {
	out := make([]byte, size)
	if err := rt.w.clu.Nodes[rt.node.ID].Mem.CopyOut(rs.staging, out); err != nil {
		rt.fail(p, "staging: %v", err)
	}
	return out
}

func (rt *router) loop(p *sim.Proc) {
	par := rt.w.par
	for {
		if rt.shutdown {
			return
		}
		rt.q.Get(p)
		if rt.shutdown {
			return
		}
		for {
			if poll := par.CoPilotPoll; poll > 0 {
				tick := (p.Now() + poll - 1) / poll * poll
				p.AdvanceTo(tick)
			}
			if !rt.step(p) {
				break
			}
		}
	}
}

// step drains one rank descriptor or one incoming MPI message.
func (rt *router) step(p *sim.Proc) bool {
	// Rank descriptors first.
	for _, rs := range rt.local {
		if rs.sctx == nil {
			continue
		}
		w0, ok := rs.sctx.TryReadOutMbox(p)
		if !ok {
			continue
		}
		op, peer := parseWord0(w0)
		size := int(rs.sctx.ReadOutMbox(p))
		p.Advance(cmlDispatch)
		rt.handleDescriptor(p, rs, op, peer, size)
		return true
	}
	// Then incoming router-router traffic.
	if st, ok := rt.rank.Iprobe(p, mpi.AnySource, mpi.AnyTag); ok {
		p.Advance(cmlDispatch)
		// Receiver-initiated fast path: a point-to-point payload whose
		// receive is already posted lands directly in the receiver's
		// staging buffer — no intermediate copy.
		if st.Tag>>18 == 1 {
			src := (st.Tag >> 9) & 0x1FF
			dst := st.Tag & 0x1FF
			key := [2]int{src, dst}
			if len(rt.recvs[key]) > 0 {
				rs := rt.recvs[key][0]
				rt.recvs[key] = rt.recvs[key][1:]
				rt.segs = rt.staging(p, rs, st.Count, rt.segs)
				rt.rank.RecvIntoVec(p, st.Source, st.Tag, rt.segs...)
				rs.spe.InMbox.Write(p, uint32(st.Count))
				return true
			}
		}
		data, rst := rt.rank.Recv(p, st.Source, st.Tag)
		rt.handleIncoming(p, rst.Tag, data)
		return true
	}
	return false
}

func (rt *router) handleDescriptor(p *sim.Proc, rs *rankState, op opcode, peer, size int) {
	w := rt.w
	switch op {
	case opSend:
		if peer < 0 || peer >= len(w.ranks) || peer == rs.id {
			rt.fail(p, "rank %d sends to invalid rank %d", rs.id, peer)
		}
		dst := w.ranks[peer]
		if dst.node == rt.idx {
			// Receiver-initiated local transfer: the payload stays in the
			// sender's staging buffer; the sender is acked at delivery.
			rt.sends[[2]int{rs.id, peer}] = append(rt.sends[[2]int{rs.id, peer}],
				&queuedSend{src: rs, size: size})
			rt.match(p, rs.id, peer)
		} else {
			// IsendVec snapshots the staging buffer, so the sender may
			// reuse it as soon as we ack.
			rt.segs = rt.staging(p, rs, size, rt.segs)
			rt.rank.IsendVec(p, dst.node, sendTag(rs.id, peer), rt.segs...)
			rs.spe.InMbox.Write(p, 0)
		}

	case opRecv:
		rt.recvs[[2]int{peer, rs.id}] = append(rt.recvs[[2]int{peer, rs.id}], rs)
		rt.match(p, peer, rs.id)

	case opBcastRoot:
		payload := rt.fromStaging(p, rs, size)
		p.Advance(w.par.ShmCopyTime(size))
		for _, other := range rt.w.routers {
			if other.idx != rt.idx {
				rt.rank.Isend(p, other.idx, bcastTag(rs.id), payload)
			}
		}
		rt.enqueueBcast(p, rs.id, payload, len(rt.local)-1)
		rs.spe.InMbox.Write(p, 0)

	case opBcastRecv:
		rt.bwait[peer] = append(rt.bwait[peer], rs)
		rt.matchBcast(p, peer)

	case opReduceSend, opReduceRecv:
		root := peer
		contrib := rt.fromStaging(p, rs, size)
		p.Advance(w.par.ShmCopyTime(size))
		red := rt.reduce[root]
		if red == nil {
			red = &reduceOp{}
			rt.reduce[root] = red
		}
		red.combine(contrib)
		red.localGot++
		if op == opReduceRecv {
			rt.rwait[root] = rs // the root rank waits for the result here
		} else {
			rs.spe.InMbox.Write(p, 0)
		}
		rt.progressReduce(p, root)
	}
}

func (rt *router) handleIncoming(p *sim.Proc, tag int, data []byte) {
	kind := tag >> 18
	switch kind {
	case 1: // point-to-point
		src := (tag >> 9) & 0x1FF
		dst := tag & 0x1FF
		rt.sends[[2]int{src, dst}] = append(rt.sends[[2]int{src, dst}],
			&queuedSend{data: data, size: len(data)})
		rt.match(p, src, dst)
	case 2: // bcast fan-in from the root's router
		root := tag & 0x3FFFF
		rt.enqueueBcast(p, root, data, rt.localCountExcept(root))
	case 3: // reduce partial from another router (this router hosts root)
		root := tag & 0x3FFFF
		red := rt.reduce[root]
		if red == nil {
			red = &reduceOp{}
			rt.reduce[root] = red
		}
		red.combine(data)
		red.partialsGot++
		rt.progressReduce(p, root)
	}
}

func (rt *router) localCountExcept(rank int) int {
	n := 0
	for _, rs := range rt.local {
		if rs.id != rank {
			n++
		}
	}
	return n
}

// match delivers a queued (src,dst) payload to a waiting local receiver.
func (rt *router) match(p *sim.Proc, src, dst int) {
	key := [2]int{src, dst}
	for len(rt.sends[key]) > 0 && len(rt.recvs[key]) > 0 {
		qs := rt.sends[key][0]
		rt.sends[key] = rt.sends[key][1:]
		rs := rt.recvs[key][0]
		rt.recvs[key] = rt.recvs[key][1:]
		if qs.src != nil {
			rt.peerSegs = rt.staging(p, qs.src, qs.size, rt.peerSegs)
			rt.segs = rt.staging(p, rs, qs.size, rt.segs)
			cellbe.CopySegments(rt.segs, rt.peerSegs)
		} else {
			rt.toStaging(p, rs, qs.data)
		}
		p.Advance(rt.w.par.ShmCopyTime(qs.size))
		if qs.src != nil {
			qs.src.spe.InMbox.Write(p, 0) // sender completes at delivery
		}
		rs.spe.InMbox.Write(p, uint32(qs.size))
	}
}

func (rt *router) enqueueBcast(p *sim.Proc, root int, data []byte, fanout int) {
	if fanout > 0 {
		rt.bcasts[root] = append(rt.bcasts[root], &bcastMsg{data: data, remaining: fanout})
	}
	rt.matchBcast(p, root)
}

func (rt *router) matchBcast(p *sim.Proc, root int) {
	for len(rt.bcasts[root]) > 0 && len(rt.bwait[root]) > 0 {
		msg := rt.bcasts[root][0]
		rs := rt.bwait[root][0]
		rt.bwait[root] = rt.bwait[root][1:]
		rt.toStaging(p, rs, msg.data)
		p.Advance(rt.w.par.ShmCopyTime(len(msg.data)))
		rs.spe.InMbox.Write(p, uint32(len(msg.data)))
		msg.remaining--
		if msg.remaining == 0 {
			rt.bcasts[root] = rt.bcasts[root][1:]
		}
	}
}

// progressReduce forwards a completed local partial toward the root's
// router, or delivers the final result to the waiting root rank.
func (rt *router) progressReduce(p *sim.Proc, root int) {
	red := rt.reduce[root]
	if red == nil || red.localGot < len(rt.local) {
		return
	}
	rootRouter := rt.w.ranks[root].node
	if rootRouter != rt.idx {
		rt.rank.Isend(p, rootRouter, reducePartial(root), red.acc)
		delete(rt.reduce, root)
		return
	}
	if red.partialsGot < len(rt.w.routers)-1 || red.rootDeliverd {
		return
	}
	rs := rt.rwait[root]
	if rs == nil {
		return // root rank's request not yet decoded
	}
	rt.toStaging(p, rs, red.acc)
	p.Advance(rt.w.par.ShmCopyTime(len(red.acc)))
	rs.spe.InMbox.Write(p, uint32(len(red.acc)))
	red.rootDeliverd = true
	delete(rt.reduce, root)
	delete(rt.rwait, root)
}

// combine folds a big-endian int32 vector contribution into the
// accumulator (CML's reduction kernel; sum).
func (r *reduceOp) combine(in []byte) {
	if r.acc == nil {
		r.acc = append([]byte(nil), in...)
		return
	}
	for off := 0; off+4 <= len(r.acc) && off+4 <= len(in); off += 4 {
		a := int32(binary.BigEndian.Uint32(r.acc[off:]))
		b := int32(binary.BigEndian.Uint32(in[off:]))
		binary.BigEndian.PutUint32(r.acc[off:], uint32(a+b))
	}
}
