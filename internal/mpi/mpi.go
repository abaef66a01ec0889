// Package mpi is a from-scratch message-passing layer over the simulated
// cluster: ranks placed on node processors, tagged point-to-point
// communication with MPI matching semantics (wildcards, non-overtaking
// per sender), an eager/rendezvous protocol split, probes, and the
// collective operations Pilot builds on. It plays the role Open MPI 1.2.8
// played in the paper.
//
// Ranks are single-threaded (MPI_THREAD_SINGLE), exactly the constraint
// that drove the paper's Co-Pilot design: each rank must be driven by one
// sim proc, and the package enforces it.
package mpi

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/fault"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// Wildcards for Recv and Probe.
const (
	AnySource = -1
	AnyTag    = -1
)

// Placement locates one rank on a node.
type Placement struct {
	// Node is the index into the cluster's node list.
	Node int
	// Label names the rank's role for traces ("pilot", "copilot", "svc").
	Label string
}

// World is the set of ranks (MPI_COMM_WORLD) over a cluster.
type World struct {
	K     *sim.Kernel
	Clu   *cluster.Cluster
	Par   *cellbe.Params
	ranks []*Rank

	// Faults, when non-nil and carrying link policies, switches eager
	// remote sends on faulty links to the stop-and-wait reliability layer
	// (reliable.go). Nil — or an injector with no link policies — leaves
	// every path bit-identical to the unhardened build.
	Faults *fault.Injector
	rel    map[relKey]*relState

	envFree []*envelope // recycled envelope records (see newEnvelope)
	reqFree []*recvReq  // recycled internal receive records (see newRecvReq)
	hopFree []*relHop   // recycled reliability-layer hops (see relHopAfter)

	// Flow, when non-nil, observes every delivered message as (source
	// node, destination node, bytes) — the node×node traffic matrix feed.
	// Local deliveries land on the diagonal. Purely observational: it
	// never advances virtual time.
	Flow func(srcNode, dstNode, bytes int)

	// Host, when non-nil, receives wall-clock attribution frames around
	// the MPI entry points (hostprof). Pure host-side bookkeeping: it
	// never advances virtual time, so instrumented runs stay bit-identical.
	Host *hostprof.Profiler
}

// NewWorld creates a world with one rank per placement, in rank order.
func NewWorld(c *cluster.Cluster, placements []Placement) (*World, error) {
	w := &World{K: c.K, Clu: c, Par: c.Params}
	for i, pl := range placements {
		if pl.Node < 0 || pl.Node >= len(c.Nodes) {
			return nil, fmt.Errorf("mpi: rank %d placed on unknown node %d", i, pl.Node)
		}
		w.ranks = append(w.ranks, &Rank{
			w:       w,
			id:      i,
			node:    c.Nodes[pl.Node],
			lbl:     pl.Label,
			waitWhy: fmt.Sprintf("mpi wait rank%d", i),
		})
	}
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank {
	if i < 0 || i >= len(w.ranks) {
		panic(fmt.Sprintf("mpi: no rank %d in world of size %d", i, len(w.ranks)))
	}
	return w.ranks[i]
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	node *cellbe.Node
	lbl  string

	owner      *sim.Proc // the single proc driving this rank
	posted     []*recvReq
	unexpected unexpectedQueue
	probes     []*probeReq
	arrival    func() // OnArrival hook
	nextXfer   int64  // TagNextXfer value consumed by the next send
	waitWhy    string // Wait's park reason, built once
}

// ID reports the rank number.
func (r *Rank) ID() int { return r.id }

// Node reports the node hosting the rank.
func (r *Rank) Node() *cellbe.Node { return r.node }

// Label reports the rank's role label.
func (r *Rank) Label() string { return r.lbl }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// bind enforces MPI_THREAD_SINGLE: the first proc to use the rank owns it.
func (r *Rank) bind(p *sim.Proc) {
	if r.owner == nil {
		r.owner = p
		return
	}
	if r.owner != p {
		p.Fatalf("mpi: rank %d (%s) used by proc %q but owned by %q (MPI_THREAD_SINGLE)",
			r.id, r.lbl, p.Name(), r.owner.Name())
	}
}

// TagNextXfer attaches an observability transfer id to the next send (or
// nonblocking send) issued on this rank. The id rides the envelope
// out-of-band — it adds no bytes and no virtual time — and surfaces in the
// receiver's Status, which is how CellPilot correlates the two ends of a
// transfer into one trace span. Zero means untagged.
func (r *Rank) TagNextXfer(id int64) { r.nextXfer = id }

// takeXfer consumes the pending transfer id.
func (r *Rank) takeXfer() int64 {
	id := r.nextXfer
	r.nextXfer = 0
	return id
}

// Status describes a received or probed message.
type Status struct {
	Source int
	Tag    int
	Count  int
	// Xfer is the sender's observability transfer id (see TagNextXfer);
	// 0 when the send was untagged.
	Xfer int64
}
