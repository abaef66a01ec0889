package core

import (
	"cellpilot/internal/fault"
	"cellpilot/internal/timeline"
)

// tlNames are the timeline series names that depend on the run's
// topology, built once when Run starts instead of on every sample.
type tlNames struct {
	copilots []string // utilization, by copilotOrder
	links    []string // saturation, by node
	spes     []*Process
	mailbox  []string // in-mailbox high-water, by spes
	// routes are the flow observatory's routes seen so far and flows
	// their series names; both grow when a new route appears.
	routes, flows []string
}

// installTimeline wires the timeline recorder into the kernel's clock
// hook and builds the series names. Like every sink, the recorder only
// reads: the sampler walks live runtime state (Co-Pilot busy time, link
// occupancy, channel backlog, fault counters) without scheduling anything,
// so an attached timeline cannot move a single virtual timestamp. Run
// calls it once the Co-Pilots exist.
func (a *App) installTimeline() {
	tl := a.obs.Timeline
	if tl == nil {
		return
	}
	n := &tlNames{}
	for _, key := range a.copilotOrder {
		n.copilots = append(n.copilots, "copilot/"+a.copilots[key].rank.Label()+"/utilization")
	}
	for _, ls := range a.Clu.Net.LinkStats() {
		n.links = append(n.links, "link/"+ls.Name+"/saturation")
	}
	for _, p := range a.procs {
		if p.IsSPE() {
			n.spes = append(n.spes, p)
			n.mailbox = append(n.mailbox, "mailbox/"+p.String()+"/in_highwater")
		}
	}
	tl.SetSampler(func(s *timeline.Sample) { a.timelineSample(s, n) })
	a.K.SetClockHook(tl.Observe)
}

// timelineSample reads one window's worth of live state, all of it kept by
// core whatever sinks are attached. Series names follow the metrics
// registry's naming where a registry counterpart exists, so the timeline
// and /metrics.json speak the same vocabulary.
func (a *App) timelineSample(s *timeline.Sample, n *tlNames) {
	for i, key := range a.copilotOrder {
		s.Add(n.copilots[i], timeline.Busy, float64(a.copilots[key].busy))
	}
	for i, name := range n.links {
		s.Add(name, timeline.Busy, float64(a.Clu.Net.LinkBusy(i)))
	}
	msgs, bytes := a.Clu.Net.Stats()
	s.Add("net/bytes", timeline.Counter, float64(bytes))
	s.Add("net/messages", timeline.Counter, float64(msgs))
	if f := a.obs.Flows; f != nil {
		// Per-route delivered-byte counters. RouteNames is sorted, so
		// series creation order — and with it the timeline fingerprint —
		// is deterministic.
		if f.RouteCount() != len(n.routes) {
			n.routes = f.RouteNames()
			n.flows = n.flows[:0]
			for _, r := range n.routes {
				n.flows = append(n.flows, "flow/"+r)
			}
		}
		for i, r := range n.routes {
			s.Add(n.flows[i], timeline.Counter, float64(f.RouteBytes(r)))
		}
	}
	for i, p := range n.spes {
		if p.sctx != nil {
			s.Add(n.mailbox[i], timeline.Gauge, float64(p.sctx.SPE.InMbox.HighWater()))
		}
	}
	total := 0
	var backlog [Type5 + 1]int
	var chanOps, chanBytes [Type5 + 1]int64
	var present [Type5 + 1]bool
	for _, ch := range a.chans {
		present[ch.typ] = true
		backlog[ch.typ] += ch.backlog
		chanOps[ch.typ] += ch.ops
		chanBytes[ch.typ] += ch.bytes
		total += ch.backlog
	}
	s.Add("backlog/total", timeline.Gauge, float64(total))
	for t := Type1; t <= Type5; t++ {
		if !present[t] {
			continue
		}
		s.Add(chanTypeNames[t].backlog, timeline.Gauge, float64(backlog[t]))
		if chanOps[t] > 0 {
			s.Add(chanTypeNames[t].bytes, timeline.Counter, float64(chanBytes[t]))
		}
	}
	for dir, st := range a.streams {
		if st.seen {
			s.Add(streamGauges[dir], timeline.Gauge, float64(st.cur))
		}
	}
	if inj := a.opts.Faults; inj != nil {
		for i, c := range fault.Counters {
			s.Add(faultNames[i], timeline.Counter, float64(*c.Of(&inj.Counts)))
		}
	}
}
