package core

import (
	"fmt"

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

// timelineSample reads one window's worth of live state. Series names
// follow the metrics registry's naming where a registry counterpart
// exists, so the timeline and /metrics.json speak the same vocabulary.
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
	var byType [6]int
	var present [6]bool
	for _, ch := range a.chans {
		t := int(ch.typ)
		if t < 1 || t > 5 {
			continue
		}
		present[t] = true
		byType[t] += ch.backlog
		total += ch.backlog
	}
	s.Add("backlog/total", timeline.Gauge, float64(total))
	m := a.obs.meter
	for t := 1; t <= 5; t++ {
		if !present[t] {
			continue
		}
		s.Add(fmt.Sprintf("backlog/type%d", t), timeline.Gauge, float64(byType[t]))
		if m == nil {
			continue
		}
		// Bytes moved per type: read-only registry lookup — creating the
		// counter here would mutate the registry from a sampler.
		name := fmt.Sprintf("chan/type%d/payload_bytes_total", t)
		if c := m.reg.LookupCounter(name); c != nil {
			s.Add(name, timeline.Counter, float64(c.Value()))
		}
	}
	if m != nil {
		for _, name := range []string{"copilot/stream/inflight_send", "copilot/stream/inflight_recv"} {
			if g := m.reg.LookupGauge(name); g != nil {
				s.Add(name, timeline.Gauge, g.Value())
			}
		}
	}
	if inj := a.opts.Faults; inj != nil {
		c := &inj.Counts
		for _, fc := range []struct {
			name string
			v    int64
		}{
			{"fault/link_drops", c.LinkDrops},
			{"fault/link_corrupts", c.LinkCorrupts},
			{"fault/link_delays", c.LinkDelays},
			{"fault/retransmits", c.Retransmits},
			{"fault/dup_frames", c.DupFrames},
			{"fault/ack_drops", c.AckDrops},
			{"fault/give_ups", c.GiveUps},
			{"fault/give_up_drops", c.GiveUpDrops},
			{"fault/mailbox_drops", c.MailboxDrops},
			{"fault/mailbox_stalls", c.MailboxStalls},
			{"fault/mailbox_nacks", c.MailboxNacks},
			{"fault/mailbox_reposts", c.MailboxReposts},
			{"fault/op_timeouts", c.OpTimeouts},
			{"fault/channel_faults", c.ChannelFaults},
			{"fault/procs_killed", c.ProcsKilled},
		} {
			s.Add(fc.name, timeline.Counter, float64(fc.v))
		}
	}
}
