// Package interconnect models the cluster fabric: per-node NICs feeding a
// non-blocking switch over gigabit Ethernet. Transfers between distinct
// nodes queue on the sender's NIC (startup + serialization at the effective
// bandwidth) and then propagate with a fixed latency; the intra-node path
// is handled by the MPI layer's shared-memory model, not here.
package interconnect

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// Network is the cluster interconnect.
type Network struct {
	k   *sim.Kernel
	par *cellbe.Params
	tx  []*sim.Resource
	// host receives wall-clock attribution frames around the transmit
	// paths (hostprof); nil disables. Never touches virtual time.
	host *hostprof.Profiler
	// flow, when set, observes every frame a NIC transmits (link name,
	// bytes) — including retransmits and control frames, so it counts
	// wire-level truth rather than delivered payload. Never touches
	// virtual time.
	flow func(link string, bytes int)

	// stats
	messages int
	bytes    int64
}

// SetHostProf attaches the wall-clock profiler (nil detaches).
func (n *Network) SetHostProf(h *hostprof.Profiler) { n.host = h }

// SetFlowHook attaches a per-frame observer called with the transmitting
// NIC's name and the frame size on every Send/Reserve/ReserveRaw (nil
// detaches). Purely observational: virtual time is unaffected.
func (n *Network) SetFlowHook(fn func(link string, bytes int)) { n.flow = fn }

// New builds a network for nNodes nodes using the calibration in par.
func New(k *sim.Kernel, par *cellbe.Params, nNodes int) *Network {
	n := &Network{k: k, par: par}
	for i := 0; i < nNodes; i++ {
		n.tx = append(n.tx, sim.NewResource(
			k, fmt.Sprintf("nic%d", i), par.LinkStartup, par.NetBytesPerSec, par.NetLatency))
	}
	return n
}

// check validates a node pair. Sending to the sender's own node is a
// programming error here (use the local MPI path), as is an out-of-range
// node id; both used to panic, but are now reported as errors so the
// protocol layers can route them through the application's abort path
// with a Pilot-style diagnostic instead of crashing the host process.
func (n *Network) check(from, to int) error {
	if from == to {
		return fmt.Errorf("interconnect: send from node %d to itself (use the local path)", from)
	}
	if from < 0 || from >= len(n.tx) || to < 0 || to >= len(n.tx) {
		return fmt.Errorf("interconnect: send between unknown nodes %d->%d (cluster has %d)", from, to, len(n.tx))
	}
	return nil
}

// Send models node from transmitting bytes to node to. It blocks p for NIC
// queueing and serialization and returns the arrival time at the receiver.
func (n *Network) Send(p *sim.Proc, from, to, bytes int) (arrival sim.Time, err error) {
	n.host.Enter(hostprof.SubsysInterconnect)
	defer n.host.Exit()
	if err := n.check(from, to); err != nil {
		return 0, err
	}
	n.messages++
	n.bytes += int64(bytes)
	if n.flow != nil {
		n.flow(n.tx[from].Name, bytes)
	}
	return n.tx[from].Send(p, bytes), nil
}

// Reserve is Send for scheduler context: it books NIC occupancy and
// returns the arrival time without blocking any proc. The MPI reliability
// layer retransmits through it — a timer has no proc to charge, but the
// resent bytes still occupy the wire.
func (n *Network) Reserve(from, to, bytes int) (arrival sim.Time, err error) {
	n.host.Enter(hostprof.SubsysInterconnect)
	defer n.host.Exit()
	if err := n.check(from, to); err != nil {
		return 0, err
	}
	n.messages++
	n.bytes += int64(bytes)
	if n.flow != nil {
		n.flow(n.tx[from].Name, bytes)
	}
	return n.tx[from].Reserve(bytes), nil
}

// ReserveRaw books NIC occupancy for one chunk of a pipelined large
// message at the raw wire rate (LinkStartup + bytes/ChunkWireBytesPerSec)
// instead of the end-to-end fitted NetBytesPerSec, returning the arrival
// time without blocking any proc. The fitted rate folds the endpoint
// TCP-stack and copy costs into the NIC; the chunked path charges those
// stages explicitly on the endpoint processes, so its NIC booking must
// reflect only the wire.
func (n *Network) ReserveRaw(from, to, bytes int) (arrival sim.Time, err error) {
	n.host.Enter(hostprof.SubsysInterconnect)
	defer n.host.Exit()
	if err := n.check(from, to); err != nil {
		return 0, err
	}
	n.messages++
	n.bytes += int64(bytes)
	if n.flow != nil {
		n.flow(n.tx[from].Name, bytes)
	}
	return n.tx[from].ReserveFor(n.par.LinkStartup + n.par.ChunkWireTime(bytes)), nil
}

// OneWayTime predicts the unloaded one-way time for a message of the given
// size; useful for tests and analytical checks.
func (n *Network) OneWayTime(bytes int) sim.Time {
	return n.tx[0].SerializationTime(bytes) + n.par.NetLatency
}

// SerializationTime reports how long bytes occupy a NIC (uniform across
// nodes). Used by protocol layers that schedule transfers asynchronously.
func (n *Network) SerializationTime(bytes int) sim.Time {
	return n.tx[0].SerializationTime(bytes)
}

// Stats reports total messages and bytes sent through the fabric.
func (n *Network) Stats() (messages int, bytes int64) { return n.messages, n.bytes }

// LinkStat is one NIC's cumulative occupancy.
type LinkStat struct {
	// Name identifies the NIC ("nic0", "nic1", ...).
	Name string
	// Busy is the cumulative virtual time the NIC spent serializing.
	Busy sim.Time
}

// LinkBusy reports one node's NIC cumulative busy time, as LinkStats does
// for every node, without building a slice.
func (n *Network) LinkBusy(node int) sim.Time { return n.tx[node].Busy() }

// LinkStats reports per-NIC cumulative busy time, in node order. Divided
// by elapsed virtual time it gives each link's saturation.
func (n *Network) LinkStats() []LinkStat {
	out := make([]LinkStat, 0, len(n.tx))
	for _, r := range n.tx {
		out = append(out, LinkStat{Name: r.Name, Busy: r.Busy()})
	}
	return out
}
