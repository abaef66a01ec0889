package core

import (
	"fmt"

	"cellpilot/internal/flowmap"
	"cellpilot/internal/sim"
)

// copilotLabelPrefix prefixes every Co-Pilot rank label ("copilot@cell0",
// "copilot@cell1/cell1" under the per-cell ablation). The flow layer uses
// it to recognize relay occupancy spans without per-site hooks.
const copilotLabelPrefix = "copilot@"

// chanFlow is a channel's flow classification: the flow key every
// delivery on it maps to, plus the resources each delivered byte
// traversed. Computed once per channel at first delivery (the Co-Pilot
// ranks it names exist only once Run has built the MPI world) and cached
// on the channel.
type chanFlow struct {
	key flowmap.Key
	// hops are the Co-Pilot rank labels on the route, in traversal order
	// (writer side first). Empty for type 1.
	hops []string
	// nics are the NIC resource names the payload serializes through
	// ("nic<node>" of the transmitting node). Empty for on-node routes.
	nics []string
}

// flowRoute maps a channel type and direction onto the route taxonomy.
// Type 1 keeps one route for both same-node and cross-node pairs: the
// paper's taxonomy is about SPE involvement, and both go through MPI.
func flowRoute(ch *Channel) string {
	switch ch.typ {
	case Type1:
		return flowmap.RoutePPEtoPPE
	case Type2:
		if ch.To.IsSPE() {
			return flowmap.RoutePPEtoSPE
		}
		return flowmap.RouteSPEtoPPE
	case Type3:
		if ch.To.IsSPE() {
			return flowmap.RoutePPEtoRemSPE
		}
		return flowmap.RouteRemSPEtoPPE
	case Type4:
		return flowmap.RouteSPEtoSPE
	default:
		return flowmap.RouteSPEtoRemSPE
	}
}

// flowInfo computes (or returns the cached) flow classification of a
// channel: key plus hop and NIC attribution lists.
func (a *App) flowInfo(ch *Channel) *chanFlow {
	if ch.flow != nil {
		return ch.flow
	}
	cf := &chanFlow{key: flowmap.Key{
		Src:   ch.From.String(),
		Dst:   ch.To.String(),
		Type:  int(ch.typ),
		Route: flowRoute(ch),
	}}
	cpLabel := func(p *Process) string { return a.copilotFor(p).rank.Label() }
	crossNode := ch.From.nodeID != ch.To.nodeID
	switch ch.typ {
	case Type1:
		// Plain MPI; a Co-Pilot never touches the payload.
	case Type2:
		if ch.To.IsSPE() {
			cf.hops = []string{cpLabel(ch.To)}
		} else {
			cf.hops = []string{cpLabel(ch.From)}
		}
	case Type3:
		if ch.To.IsSPE() {
			cf.hops = []string{cpLabel(ch.To)}
		} else {
			cf.hops = []string{cpLabel(ch.From)}
		}
	case Type4:
		cf.hops = []string{cpLabel(ch.From)}
	case Type5:
		cf.hops = []string{cpLabel(ch.From), cpLabel(ch.To)}
	}
	if crossNode {
		// The payload serializes out of the writer's node exactly once on
		// every cross-node route (the type-5 relay leg also leaves from
		// the writer's node: its Co-Pilot forwards over MPI from there).
		cf.nics = []string{fmt.Sprintf("nic%d", ch.From.nodeID)}
	}
	ch.flow = cf
	return cf
}

// flowDeliver classifies one delivered message into its flow: the flow
// table and route aggregates take the payload size and latency sample,
// and every hop on the route is attributed the delivered bytes (NICs
// additionally their serialization occupancy; Co-Pilot occupancy comes
// from the relay spans via spanPhase, which measures queueing too).
func (a *App) flowDeliver(ch *Channel, bytes int, dur sim.Time) {
	f := a.obs.flow
	if f == nil {
		return
	}
	fi := a.flowInfo(ch)
	f.Deliver(fi.key, bytes, dur)
	for _, h := range fi.hops {
		f.HopBytes(h, fi.key, bytes)
	}
	for _, nic := range fi.nics {
		f.HopBytes(nic, fi.key, bytes)
		f.HopBusy(nic, fi.key, a.Clu.Net.SerializationTime(bytes))
	}
}
