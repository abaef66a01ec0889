package core

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

// This file is the chunked transfer engine: the size-adaptive protocol
// split that replaces whole-payload store-and-forward for large internode
// messages. Small messages (wire size ≤ the eager bound) keep the exact
// paper-faithful path; large type-1/3/5 payloads are announced with a
// stream header and then pipelined in fixed-size chunks, so chunk k's MPI
// stack serialization overlaps chunk k+1's LS↔EA DMA and the wire time of
// the chunks already in flight. The zero value of TransferOptions disables
// all of it, and a disabled engine reproduces the pre-engine virtual
// timeline bit for bit.

// TransferOptions tune the transfer engine. The zero value is the
// paper-faithful configuration: no chunking, no zero-copy type-4 path.
type TransferOptions struct {
	// ChunkSize, when positive, enables the pipelined chunk protocol for
	// internode transfers (channel types 1, 3 and 5) whose on-wire size
	// (header + payload) exceeds Params.EagerThreshold, so exactly the
	// messages that would rendezvous are the ones that stream; payloads
	// move as ceil(size/ChunkSize) chunks. Zero disables chunking
	// entirely.
	ChunkSize int
	// PipelineDepth bounds how many chunks may be in flight (injected but
	// not yet arrived) at once; chunk k is injected only after chunk
	// k-PipelineDepth has arrived. Zero means the default of 4.
	PipelineDepth int
	// ZeroCopyType4 routes type-4 (SPE ↔ local SPE) copies through an
	// LS-window→LS-window DMA over the EIB instead of the Co-Pilot's mapped
	// local-store memcpy — the B3 fast path.
	ZeroCopyType4 bool
}

// defaultPipelineDepth is the in-flight chunk window when
// TransferOptions.PipelineDepth is zero.
const defaultPipelineDepth = 4

// chunkingOn reports whether the chunk protocol is enabled at all.
func (a *App) chunkingOn() bool { return a.opts.Transfer.ChunkSize > 0 }

// pipeDepth is the effective in-flight chunk window.
func (a *App) pipeDepth() int {
	if d := a.opts.Transfer.PipelineDepth; d > 0 {
		return d
	}
	return defaultPipelineDepth
}

// streamEligible reports whether ch could ever carry a chunk stream: the
// engine is on, the channel crosses nodes, and its type moves payloads
// over the interconnect (types 2 and 4 are intra-node by construction).
func (a *App) streamEligible(ch *Channel) bool {
	if !a.chunkingOn() {
		return false
	}
	switch ch.typ {
	case Type1, Type3, Type5:
	default:
		return false
	}
	return ch.From.nodeID != ch.To.nodeID
}

// chunked is the protocol split both endpoints compute independently: a
// transfer streams exactly when the channel is eligible and its on-wire
// size exceeds the eager bound. Writer and reader agree because Pilot
// already requires their sizes to agree (a mismatch is a format error).
func (a *App) chunked(ch *Channel, wireLen int) bool {
	return a.streamEligible(ch) && hdrSize+wireLen > a.par.EagerThreshold
}

// dmaRes returns the per-SPE MFC DMA engine resource the chunk pipeline
// books LS↔EA moves on. Modelling it as a resource (rather than advancing
// the Co-Pilot) is what lets a chunk's DMA overlap the previous chunk's
// stack injection; one resource per SPE keeps concurrent streams from
// different SPEs independent while serializing one SPE's own chunks.
func (a *App) dmaRes(spe *cellbe.SPE) *sim.Resource {
	if a.speDMA == nil {
		a.speDMA = map[*cellbe.SPE]*sim.Resource{}
	}
	r, ok := a.speDMA[spe]
	if !ok {
		r = sim.NewResource(a.K, "mfc-dma", 0, 0, 0)
		a.speDMA[spe] = r
	}
	return r
}

// streamTagOffset lifts a channel's stream traffic into its own tag space,
// so a chunk stream never matches a plain receive on the channel tag (and
// vice versa). Header and chunks share the stream tag: MPI non-overtaking
// per (source, tag) plus the reliability layer's strict in-order delivery
// guarantee the header arrives first and the chunks arrive in index order.
const streamTagOffset = 1 << 20

// streamTag is the MPI tag carrying ch's stream header and chunks.
func (c *Channel) streamTag() int { return streamTagOffset + userTagBase + c.id }

// Stream header: 16 bytes announcing a chunk stream — format signature,
// payload wire size, chunk size, chunk count. Small enough to always be
// eager, so sending it never blocks on the reader.
const streamHdrSize = 16

// chunkIdxSize prefixes every chunk with its big-endian index. Delivery
// order is already guaranteed; the index is an integrity assertion.
const chunkIdxSize = 4

// putStreamHeader writes a stream header into b, which holds at least
// streamHdrSize bytes.
func putStreamHeader(b []byte, sig uint32, size, chunkBytes, nchunks int) {
	be32(b[0:], sig)
	be32(b[4:], uint32(size))
	be32(b[8:], uint32(chunkBytes))
	be32(b[12:], uint32(nchunks))
}

func parseStreamHeader(b []byte) (sig uint32, size, chunkBytes, nchunks int) {
	return rd32(b[0:]), int(rd32(b[4:])), int(rd32(b[8:])), int(rd32(b[12:]))
}

func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func rd32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// appendChunkFrame appends one chunk frame (index prefix + the payload,
// given as one or more segments) to buf.
func appendChunkFrame(buf []byte, idx int, payload ...[]byte) []byte {
	buf = append(buf, byte(idx>>24), byte(idx>>16), byte(idx>>8), byte(idx))
	for _, seg := range payload {
		buf = append(buf, seg...)
	}
	return buf
}

// subSegments appends to dst the segments that hold bytes [off, off+n) of
// segs' concatenation, cut short where segs end.
func subSegments(segs [][]byte, off, n int, dst [][]byte) [][]byte {
	for _, seg := range segs {
		if n <= 0 {
			break
		}
		if off >= len(seg) {
			off -= len(seg)
			continue
		}
		seg = seg[off:min(len(seg), off+n)]
		dst = append(dst, seg)
		off, n = 0, n-len(seg)
	}
	return dst
}

// parseChunkFrame splits a chunk frame into its index and payload.
func parseChunkFrame(data []byte) (idx int, payload []byte, ok bool) {
	if len(data) <= chunkIdxSize {
		return 0, nil, false
	}
	return int(rd32(data)), data[chunkIdxSize:], true
}

// chunkCount is the number of chunks an n-byte payload splits into.
func chunkCount(n, chunk int) int { return (n + chunk - 1) / chunk }

// chunkLen is the length of chunk k of an n-byte payload.
func chunkLen(n, chunk, k int) int {
	if rem := n - k*chunk; rem < chunk {
		return rem
	}
	return chunk
}

// streamSend is the writer-side state of one in-progress chunk stream
// (held on the Co-Pilot's speReq; the PPE writer streams inline and needs
// no persistent state). nchunks is 0 until the stream starts.
type streamSend struct {
	dst      int // destination rank
	nchunks  int
	next     int        // next chunk index to inject
	arrivals []sim.Time // nominal arrival time of each injected chunk
	dmaAt    []sim.Time // per-chunk LS→EA fetch completion (one DMA list)
	startAt  sim.Time   // for the chunk-relay span
}

// streamRecv is the reader-side state of one in-progress chunk stream.
// nchunks is 0 until its header has arrived.
type streamRecv struct {
	src     int // source rank
	chunk   int // chunk size announced by the header
	nchunks int
	got     int      // chunks landed in the LS window
	dmaDone sim.Time // completion of the last chunk's EA→LS DMA
	startAt sim.Time
}

// reqQueue is the Co-Pilot's pending-request queue: slice semantics (stable
// logical order, indexed access) with an amortized-O(1) front removal via a
// head cursor, instead of the old per-removal slice shift.
type reqQueue struct {
	items []*speReq
	head  int
}

func (q *reqQueue) size() int        { return len(q.items) - q.head }
func (q *reqQueue) at(i int) *speReq { return q.items[q.head+i] }
func (q *reqQueue) push(req *speReq) { q.items = append(q.items, req) }

// removeAt drops the request at logical index i. The front (the common
// case: requests are serviced oldest-first) just advances the cursor; the
// backlog is compacted once the dead prefix dominates.
func (q *reqQueue) removeAt(i int) {
	if i == 0 {
		q.items[q.head] = nil
		q.head++
		if q.head > 32 && q.head > len(q.items)/2 {
			q.items = append(q.items[:0], q.items[q.head:]...)
			q.head = 0
		}
		return
	}
	p := q.head + i
	copy(q.items[p:], q.items[p+1:])
	q.items = q.items[:len(q.items)-1]
}

// filter keeps only the requests keep returns true for, preserving order.
func (q *reqQueue) filter(keep func(*speReq) bool) {
	kept := q.items[:0]
	for i := q.head; i < len(q.items); i++ {
		if keep(q.items[i]) {
			kept = append(kept, q.items[i])
		}
	}
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = kept
	q.head = 0
}

// streamMismatch shapes the diagnostic for a stream whose announced
// payload disagrees with what the reader expects.
func streamMismatch(ch *Channel, reader fmt.Stringer, sent, want int) string {
	return fmt.Sprintf("size mismatch on %s: writer sent %d bytes, reader %v expects %d", ch, sent, reader, want)
}
