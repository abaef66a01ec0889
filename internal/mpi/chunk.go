package mpi

import (
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// SendChunk injects one chunk of a pipelined large-message stream toward
// rank dst and returns the chunk's nominal arrival time at the receiver.
// Unlike Send it never waits for a rendezvous and never blocks for NIC
// serialization: the sender is charged only the per-chunk stack injection
// (MPISendOverhead + ChunkStackTime), the NIC is booked asynchronously at
// the raw wire rate (ReserveRaw), and the chunk delivers like an eager
// message whatever its size — the caller's pipeline-depth throttle is the
// flow control. Chunk streams are internode only.
//
// On a link under an active fault policy the chunk rides the stop-and-wait
// reliability layer instead: strict in-order delivery with duplicate
// discard means a mid-stream fault degrades to retransmission or a severed
// pair — never a reordered or torn stream.
func (r *Rank) SendChunk(p *sim.Proc, dst, tag int, data []byte) sim.Time {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	r.bind(p)
	if dst < 0 || dst >= len(r.w.ranks) {
		p.Fatalf("mpi: chunk send to invalid rank %d", dst)
	}
	w := r.w
	d := w.ranks[dst]
	if r.node.ID == d.node.ID {
		p.Fatalf("mpi: chunk send rank %d -> rank %d is intra-node (chunked path is internode only)", r.id, dst)
	}
	p.Advance(w.Par.MPISendOverhead + w.Par.ChunkStackTime(len(data)))
	env := w.newEnvelope(r, d, tag, len(data))
	env.eager = true
	env.data = snapshot(data)
	if w.relNeeded(r, d) {
		w.relSend(p, r, d, env)
		// The reliability layer owns delivery timing now (retransmission,
		// severance); report the unloaded arrival for the caller's throttle.
		return w.K.Now() + w.Par.LinkStartup + w.Par.ChunkWireTime(len(data)) + w.Par.NetLatency
	}
	arrival, nerr := w.Clu.Net.ReserveRaw(r.node.ID, d.node.ID, len(data))
	if nerr != nil {
		p.Fatalf("mpi: rank %d chunk send to rank %d: %v", r.id, dst, nerr)
	}
	w.K.After(arrival-w.K.Now(), env.fire)
	return arrival
}
