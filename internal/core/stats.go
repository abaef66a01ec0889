package core

import (
	"fmt"
	"sort"
	"strings"

	"cellpilot/internal/critpath"
	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/metrics"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
)

// CoPilotStats counts one Co-Pilot's service activity.
type CoPilotStats struct {
	// Node is the Cell node the Co-Pilot runs on.
	Node int
	// WriteReqs and ReadReqs are decoded SPE mailbox requests by kind.
	WriteReqs, ReadReqs int
	// RelayedBytes is payload relayed over MPI (types 2, 3, 5).
	RelayedBytes int64
	// Type4Copies counts intra-node SPE↔SPE memcpy transfers.
	Type4Copies int
	// Type4Bytes is the payload those copies moved.
	Type4Bytes int64
	// Busy is the virtual time the service loop spent stepping requests
	// (vs parked waiting for work); Utilization is Busy over the run's
	// virtual time, the Co-Pilot's service-loop saturation.
	Busy        sim.Time
	Utilization float64
}

// SPEStats reports one launched SPE process's local-store usage and
// mailbox congestion watermarks.
type SPEStats struct {
	Process   string
	Node      int
	Resident  int
	HighWater int
	// InMboxHighWater and OutMboxHighWater are the largest occupancies the
	// SPE's inbound (capacity 4) and outbound (capacity 1) mailboxes ever
	// reached — sustained high values mean the SPE or its Co-Pilot could
	// not drain its partner fast enough.
	InMboxHighWater  int
	OutMboxHighWater int
	// DMABusy is the virtual time the SPE's MFC DMA engine spent moving
	// chunk-stream payloads between local store and main memory;
	// DMAUtilization is that over the run's virtual time. Both are zero
	// when the chunked transfer engine is off or the SPE never streamed.
	DMABusy        sim.Time
	DMAUtilization float64
}

// LinkUtil reports one interconnect link's cumulative occupancy.
type LinkUtil struct {
	// Name identifies the NIC ("nic0", ...), in node order.
	Name string
	// Busy is the virtual time the link spent serializing frames;
	// Utilization is Busy over the run's virtual time.
	Busy        sim.Time
	Utilization float64
}

// ChannelTypeMetrics aggregates every operation that completed on
// channels of one Table I type. Populated only when a Meter was attached
// (App.Metrics); the histograms are live views into the meter's registry.
type ChannelTypeMetrics struct {
	Type ChannelType
	// Ops counts completed read and write operations; Bytes is the total
	// payload they carried.
	Ops   int64
	Bytes int64
	// LatencyUs is per-operation latency in microseconds, SizeBytes the
	// payload-size distribution, BandwidthMBps achieved per-operation
	// bandwidth in MB/s.
	LatencyUs     *metrics.Histogram
	SizeBytes     *metrics.Histogram
	BandwidthMBps *metrics.Histogram
	// BacklogHighWater is the largest in-flight operation backlog (writes
	// completed but not yet read) any single channel of this type reached.
	BacklogHighWater int
}

// ProcTime attributes one process's virtual lifetime: compute versus the
// three ways a CellPilot process blocks on communication. Populated only
// when a Meter was attached.
type ProcTime struct {
	Process string
	// Total is the process's lifetime (spawn to return).
	Total sim.Time
	// Compute is Total minus all blocked time.
	Compute sim.Time
	// BlockedRead is time inside channel reads, BlockedWrite inside
	// channel writes, MailboxWait inside the SPE mailbox protocol
	// (posting the request descriptor and awaiting completion).
	BlockedRead  sim.Time
	BlockedWrite sim.Time
	MailboxWait  sim.Time
}

// FaultStats summarizes a hardened run: the faults the injector fired
// and how the runtime reacted to them. Present in Stats only when
// Options.Faults was set.
type FaultStats struct {
	// Counts carries the injector's fault and reaction counters.
	fault.Counts
	// Killed lists the processes fault injection removed ("name: reason"),
	// in kill order.
	Killed []string
	// ChannelFaults lists every operation fault raised during the run
	// (also available as App.ChannelFaults).
	Faults []*ChannelFault
}

// Stats is an application-wide utilization report, available after Run.
type Stats struct {
	// VirtualTime is the run's final clock value.
	VirtualTime sim.Time
	// NetworkMessages and NetworkBytes count interconnect traffic.
	NetworkMessages int
	NetworkBytes    int64
	// CoPilots, indexed by node order, covers every Cell node's service
	// process.
	CoPilots []CoPilotStats
	// SPEs covers every SPE process that was launched.
	SPEs []SPEStats
	// Links reports per-NIC occupancy and saturation, in node order.
	Links []LinkUtil
	// ChannelTypes, ProcTimes and Registry carry the Meter's aggregates
	// when App.Metrics was attached; all are nil otherwise.
	ChannelTypes []ChannelTypeMetrics
	ProcTimes    []ProcTime
	Registry     *metrics.Registry
	// Faults is the fault-injection summary; nil unless Options.Faults
	// was set.
	Faults *FaultStats
	// CritPath is the causal critical-path decomposition of the run's
	// traced transfers — per-stage service/queueing blame and the top
	// victim/aggressor contention pairs. Populated only when a trace
	// recorder was attached (the analyzer consumes its spans); nil
	// otherwise, at zero cost to the run either way.
	CritPath *critpath.Report
	// Host is the wall-clock (host-cost) profile: kernel event and heap
	// counters plus per-subsystem host-time shares. Populated only when
	// App.HostProf was attached; nil otherwise.
	Host *hostprof.Snapshot
	// Timeline is the windowed telemetry report (per-window series plus
	// peak/mean/p95/burst/recovery analytics). Populated only when
	// App.Timeline was attached; nil otherwise.
	Timeline *timeline.Report
	// Flows is the flow observatory report: node×node traffic matrix,
	// top-K heavy-hitter flows, per-route aggregates, and per-resource
	// (NIC/Co-Pilot) contribution breakdowns. Populated only when
	// App.Flows was attached; nil otherwise.
	Flows *flowmap.Report
}

// Stats collects the utilization report. Call it after Run returns.
func (a *App) Stats() Stats {
	st := Stats{VirtualTime: a.K.Now()}
	st.NetworkMessages, st.NetworkBytes = a.Clu.Net.Stats()
	if a.obs.tline != nil {
		st.Timeline = a.obs.tline.Report()
	}
	if f := a.obs.flow; f != nil {
		st.Flows = f.Report(0)
	}
	elapsed := float64(st.VirtualTime)
	keys := make([]copilotKey, 0, len(a.copilots))
	for k := range a.copilots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].cell < keys[j].cell
	})
	for _, k := range keys {
		cp := a.copilots[k]
		cs := cp.stats
		cs.Node = k.node
		cs.Busy = cp.busy
		if elapsed > 0 {
			cs.Utilization = float64(cp.busy) / elapsed
		}
		st.CoPilots = append(st.CoPilots, cs)
	}
	for _, p := range a.procs {
		if p.IsSPE() && p.sctx != nil {
			spe := p.sctx.SPE
			ss := SPEStats{
				Process:          p.String(),
				Node:             p.nodeID,
				Resident:         spe.LS.Resident(),
				HighWater:        spe.LS.HighWater(),
				InMboxHighWater:  spe.InMbox.HighWater(),
				OutMboxHighWater: spe.OutMbox.HighWater(),
			}
			if res := a.speDMA[spe]; res != nil {
				ss.DMABusy = res.Busy()
				if elapsed > 0 {
					ss.DMAUtilization = float64(res.Busy()) / elapsed
				}
			}
			st.SPEs = append(st.SPEs, ss)
		}
	}
	for _, ls := range a.Clu.Net.LinkStats() {
		lu := LinkUtil{Name: ls.Name, Busy: ls.Busy}
		if elapsed > 0 {
			lu.Utilization = float64(ls.Busy) / elapsed
		}
		st.Links = append(st.Links, lu)
	}
	if rec := a.obs.trace; rec != nil {
		st.CritPath = critpath.Analyze(rec.Spans(), critpath.Options{ProcNodes: a.ProcNodes()})
	}
	if hp := a.obs.host; hp != nil {
		snap := hp.Snapshot()
		st.Host = &snap
	}
	m := a.obs.meter
	if m == nil {
		m = a.Metrics // Stats before Run: nothing recorded, but keep the registry visible
	}
	if inj := a.opts.Faults; inj != nil {
		st.Faults = &FaultStats{
			Counts: inj.Counts,
			Killed: append([]string(nil), a.killed...),
			Faults: append([]*ChannelFault(nil), a.faults...),
		}
		if m != nil {
			a.pushFaultMetrics(m.reg)
		}
	}
	if m != nil {
		st.Registry = m.reg
		a.pushTelemetryGauges(m.reg, st)
		for t := Type1; t <= Type5; t++ {
			prefix := "chan/" + t.String()
			lat := m.reg.LookupHistogram(prefix + "/latency_us")
			if lat == nil {
				continue // no operation completed on this channel type
			}
			backlog := 0
			for _, ch := range a.chans {
				if ch.typ == t && ch.backlogHigh > backlog {
					backlog = ch.backlogHigh
				}
			}
			st.ChannelTypes = append(st.ChannelTypes, ChannelTypeMetrics{
				Type:             t,
				Ops:              m.reg.Counter(prefix + "/ops").Value(),
				Bytes:            m.reg.Counter(prefix + "/payload_bytes_total").Value(),
				LatencyUs:        lat,
				SizeBytes:        m.reg.LookupHistogram(prefix + "/payload_bytes"),
				BandwidthMBps:    m.reg.LookupHistogram(prefix + "/bandwidth_mbps"),
				BacklogHighWater: backlog,
			})
		}
		for _, p := range a.procs {
			acc, ok := m.procs[p.id]
			if !ok {
				continue
			}
			end := acc.end
			if !acc.ended {
				end = a.K.Now()
			}
			pt := ProcTime{
				Process:      p.String(),
				Total:        end - acc.start,
				BlockedRead:  acc.blocked[blockRead],
				BlockedWrite: acc.blocked[blockWrite],
				MailboxWait:  acc.blocked[blockMailbox],
			}
			pt.Compute = pt.Total - pt.BlockedRead - pt.BlockedWrite - pt.MailboxWait
			st.ProcTimes = append(st.ProcTimes, pt)
		}
	}
	return st
}

// pushTelemetryGauges publishes the congestion/utilization telemetry into
// the metrics registry as gauges (idempotent: Set overwrites, so calling
// Stats twice is safe) so it rides along in dumps, JSON snapshots and the
// OpenMetrics endpoint.
func (a *App) pushTelemetryGauges(reg *metrics.Registry, st Stats) {
	for _, key := range a.copilotOrder {
		cp := a.copilots[key]
		prefix := "copilot/" + cp.rank.Label()
		reg.Gauge(prefix + "/busy_us").Set(cp.busy.Micros())
		if st.VirtualTime > 0 {
			reg.Gauge(prefix + "/utilization").Set(float64(cp.busy) / float64(st.VirtualTime))
		}
	}
	for _, lu := range st.Links {
		prefix := "link/" + lu.Name
		reg.Gauge(prefix + "/busy_us").Set(lu.Busy.Micros())
		reg.Gauge(prefix + "/utilization").Set(lu.Utilization)
	}
	for _, spe := range st.SPEs {
		prefix := "spe/" + spe.Process
		reg.Gauge(prefix + "/inmbox_highwater").Set(float64(spe.InMboxHighWater))
		reg.Gauge(prefix + "/outmbox_highwater").Set(float64(spe.OutMboxHighWater))
		if spe.DMABusy > 0 {
			reg.Gauge(prefix + "/mfcdma_busy_us").Set(spe.DMABusy.Micros())
			reg.Gauge(prefix + "/mfcdma_utilization").Set(spe.DMAUtilization)
		}
	}
	for _, ch := range a.chans {
		if ch.backlogHigh > 0 {
			reg.Gauge(fmt.Sprintf("chan/%s/backlog_highwater", ch.typ)).SetMax(float64(ch.backlogHigh))
		}
	}
	if st.Host != nil {
		st.Host.PublishTo(reg)
	}
	if fr := st.Flows; fr != nil {
		reg.Gauge("flow/flows").Set(float64(fr.FlowCount))
		reg.Gauge("flow/messages_total").Set(float64(fr.TotalMsgs))
		reg.Gauge("flow/bytes_total").Set(float64(fr.TotalBytes))
		for _, rt := range fr.Routes {
			reg.Gauge("flow/route/" + rt.Route + "/bytes").Set(float64(rt.Bytes))
			reg.Gauge("flow/route/" + rt.Route + "/messages").Set(float64(rt.Msgs))
		}
	}
}

// pushFaultMetrics publishes the injector's counters into the metrics
// registry under fault/*, once per run, so they appear in dumps and
// exports alongside the channel metrics.
func (a *App) pushFaultMetrics(reg *metrics.Registry) {
	if a.faultMetricsPushed {
		return
	}
	a.faultMetricsPushed = true
	c := a.opts.Faults.Counts
	for _, kv := range []struct {
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
		reg.Counter(kv.name).Add(kv.v)
	}
}

// ConfigDump renders the configured architecture — the process and
// channel tables Pilot builds during the configuration phase — for
// debugging and documentation.
func (a *App) ConfigDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "processes (%d):\n", len(a.procs))
	for _, p := range a.procs {
		role := "regular"
		if p.IsSPE() {
			role = fmt.Sprintf("SPE (parent %s)", p.parent.name)
		}
		fmt.Fprintf(&b, "  %-3d %-28s %s\n", p.id, p.String(), role)
	}
	fmt.Fprintf(&b, "channels (%d):\n", len(a.chans))
	for _, ch := range a.chans {
		fmt.Fprintf(&b, "  %s\n", ch.Name())
	}
	fmt.Fprintf(&b, "bundles (%d):\n", len(a.bundles))
	for _, bd := range a.bundles {
		fmt.Fprintf(&b, "  %-10s common=%s channels=%d\n", bd.Name(), bd.common.name, len(bd.chans))
	}
	return b.String()
}

// String renders the report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %s virtual, %d network messages (%d bytes)\n",
		s.VirtualTime, s.NetworkMessages, s.NetworkBytes)
	for _, cp := range s.CoPilots {
		fmt.Fprintf(&b, "  copilot@node%d: %d write + %d read requests, %d bytes relayed, %d type-4 copies (%d bytes), busy %v (%.1f%% utilized)\n",
			cp.Node, cp.WriteReqs, cp.ReadReqs, cp.RelayedBytes, cp.Type4Copies, cp.Type4Bytes, cp.Busy, 100*cp.Utilization)
	}
	for _, spe := range s.SPEs {
		fmt.Fprintf(&b, "  %-28s LS resident %6d, high water %6d, mbox high water in=%d out=%d",
			spe.Process, spe.Resident, spe.HighWater, spe.InMboxHighWater, spe.OutMboxHighWater)
		if spe.DMABusy > 0 {
			fmt.Fprintf(&b, ", mfc-dma busy %v (%.1f%% utilized)", spe.DMABusy, 100*spe.DMAUtilization)
		}
		b.WriteByte('\n')
	}
	for _, lu := range s.Links {
		fmt.Fprintf(&b, "  %-6s busy %v (%.1f%% saturated)\n", lu.Name, lu.Busy, 100*lu.Utilization)
	}
	for _, ct := range s.ChannelTypes {
		fmt.Fprintf(&b, "  %s: %d ops, %d bytes, latency p50=%.1fus p99=%.1fus",
			ct.Type, ct.Ops, ct.Bytes, ct.LatencyUs.Quantile(0.5), ct.LatencyUs.Quantile(0.99))
		if ct.BandwidthMBps != nil && ct.BandwidthMBps.Count() > 0 {
			fmt.Fprintf(&b, ", bandwidth p50=%.1fMB/s", ct.BandwidthMBps.Quantile(0.5))
		}
		if ct.BacklogHighWater > 0 {
			fmt.Fprintf(&b, ", backlog high water %d", ct.BacklogHighWater)
		}
		b.WriteByte('\n')
	}
	for _, pt := range s.ProcTimes {
		fmt.Fprintf(&b, "  %-28s total %v: compute %v, read-blocked %v, write-blocked %v, mailbox %v\n",
			pt.Process, pt.Total, pt.Compute, pt.BlockedRead, pt.BlockedWrite, pt.MailboxWait)
	}
	if h := s.Host; h != nil && h.Events > 0 {
		fmt.Fprintf(&b, "  host: %d events, %.0fns/event sampled, max heap depth %d\n",
			h.Events, h.NsPerSlice, h.MaxHeapDepth)
	}
	if fr := s.Flows; fr != nil {
		fmt.Fprintf(&b, "  flows: %d flows, %d messages (%d bytes) across %d routes\n",
			fr.FlowCount, fr.TotalMsgs, fr.TotalBytes, len(fr.Routes))
	}
	if cp := s.CritPath; cp != nil && cp.CritTotal > 0 {
		fmt.Fprintf(&b, "  critical path: %d traced transfers, %v summed, %v queueing behind other transfers\n",
			len(cp.Transfers), cp.CritTotal, cp.QueueTotal)
	}
	if f := s.Faults; f != nil {
		fmt.Fprintf(&b, "  faults: %d process(es) killed, %d channel(s) poisoned, %d op timeout(s)\n",
			f.ProcsKilled, f.ChannelFaults, f.OpTimeouts)
		fmt.Fprintf(&b, "  link: %d drops, %d corrupts, %d delays; %d retransmits, %d dup frames, %d lost acks, %d give-ups (%d late drops)\n",
			f.LinkDrops, f.LinkCorrupts, f.LinkDelays, f.Retransmits, f.DupFrames, f.AckDrops, f.GiveUps, f.GiveUpDrops)
		fmt.Fprintf(&b, "  mailbox: %d drops, %d stalls, %d nacks, %d reposts\n",
			f.MailboxDrops, f.MailboxStalls, f.MailboxNacks, f.MailboxReposts)
		for _, k := range f.Killed {
			fmt.Fprintf(&b, "    killed %s\n", k)
		}
	}
	return b.String()
}
