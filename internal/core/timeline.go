package core

import (
	"cellpilot/internal/fault"
	"cellpilot/internal/timeline"
)

// installTimeline wires the timeline recorder into the kernel's clock
// hook. Like every sink, the recorder only reads: the sampler walks live
// runtime state (Co-Pilot busy time, link occupancy, channel backlog,
// fault counters) without scheduling anything, so an attached timeline
// cannot move a single virtual timestamp.
func (a *App) installTimeline() {
	tl := a.obs.tline
	if tl == nil {
		return
	}
	tl.SetSampler(a.timelineSample)
	a.K.SetClockHook(tl.Observe)
}

// timelineSample reads one window's worth of live state, all of it kept by
// core whatever sinks are attached. Series names follow the metrics
// registry's naming where a registry counterpart exists, so the timeline
// and /metrics.json speak the same vocabulary.
func (a *App) timelineSample(s *timeline.Sample) {
	for _, key := range a.copilotOrder {
		cp := a.copilots[key]
		s.Add("copilot/"+cp.rank.Label()+"/utilization", timeline.Busy, float64(cp.busy))
	}
	for _, ls := range a.Clu.Net.LinkStats() {
		s.Add("link/"+ls.Name+"/saturation", timeline.Busy, float64(ls.Busy))
	}
	msgs, bytes := a.Clu.Net.Stats()
	s.Add("net/bytes", timeline.Counter, float64(bytes))
	s.Add("net/messages", timeline.Counter, float64(msgs))
	if f := a.obs.flow; f != nil {
		// Per-route delivered-byte counters. RouteNames is sorted, so
		// series creation order — and with it the timeline fingerprint —
		// is deterministic.
		for _, r := range f.RouteNames() {
			s.Add("flow/"+r, timeline.Counter, float64(f.RouteBytes(r)))
		}
	}
	for _, p := range a.procs {
		if p.IsSPE() && p.sctx != nil {
			s.Add("mailbox/"+p.String()+"/in_highwater", timeline.Gauge, float64(p.sctx.SPE.InMbox.HighWater()))
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
