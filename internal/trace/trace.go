// Package trace records channel-level communication events from a
// CellPilot application on the virtual timeline and aggregates them into
// per-channel statistics. Recording is free of virtual-time cost, so an
// instrumented run reproduces exactly the timings of an uninstrumented
// one — the property that makes the recorder usable inside calibrated
// experiments.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"cellpilot/internal/sim"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	// KindWrite is a completed channel write (payload handed off).
	KindWrite Kind = iota
	// KindRead is a completed channel read (payload delivered).
	KindRead
	// KindCoPilot is a Co-Pilot servicing action (request, relay, copy).
	KindCoPilot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindRead:
		return "read"
	case KindCoPilot:
		return "copilot"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded action.
type Event struct {
	At      sim.Time
	Kind    Kind
	Proc    string
	Channel int
	Bytes   int
	// Xfer is the transfer id correlating this event with the transfer's
	// phase span (0 when the run was not span-instrumented).
	Xfer int64
}

// Recorder accumulates events up to a limit (0 = unlimited). It is used
// from simulation context only, which is single-threaded by construction.
type Recorder struct {
	limit   int
	dropped int
	events  []Event

	phases        []PhaseEvent
	phasesDropped int

	counters []CounterPoint
}

// NewRecorder creates a recorder keeping at most limit events
// (0 = unlimited).
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Record appends an event, dropping it (with accounting) past the limit.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Events returns a copy of the recorded events in order. (A copy, so
// callers cannot corrupt the recorder's internal state by mutating or
// appending to the returned slice.)
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.events...)
}

// Dropped reports events discarded past the limit.
func (r *Recorder) Dropped() int { return r.dropped }

// ChannelStats aggregates one channel's traffic.
type ChannelStats struct {
	Channel     int
	Writes      int
	Reads       int
	Bytes       int64
	First, Last sim.Time
}

// Span reports the time between the channel's first and last event. With
// fewer than two events there is no interval, so the span is 0 regardless
// of where the single event (if any) sits on the timeline.
func (st ChannelStats) Span() sim.Time {
	if st.Writes+st.Reads < 2 {
		return 0
	}
	return st.Last - st.First
}

// ByChannel aggregates events per channel id.
func (r *Recorder) ByChannel() []ChannelStats {
	agg := map[int]*ChannelStats{}
	for _, ev := range r.events {
		if ev.Kind == KindCoPilot {
			continue
		}
		st, ok := agg[ev.Channel]
		if !ok {
			st = &ChannelStats{Channel: ev.Channel, First: ev.At}
			agg[ev.Channel] = st
		}
		switch ev.Kind {
		case KindWrite:
			st.Writes++
			st.Bytes += int64(ev.Bytes)
		case KindRead:
			st.Reads++
		}
		if ev.At > st.Last {
			st.Last = ev.At
		}
		if ev.At < st.First {
			st.First = ev.At
		}
	}
	out := make([]ChannelStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}

// Summary renders a human-readable per-channel digest.
func (r *Recorder) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events (%d dropped)\n", len(r.events), r.dropped)
	for _, st := range r.ByChannel() {
		span := "0s"
		if s := st.Span(); s > 0 {
			span = s.String()
		}
		fmt.Fprintf(&b, "  channel %-3d writes=%-5d reads=%-5d bytes=%-8d span=%s\n",
			st.Channel, st.Writes, st.Reads, st.Bytes, span)
	}
	return b.String()
}

// CounterPoint is one sample of a named counter track for the Chrome
// exporter's "C" (counter) events — typically a timeline series window
// value stamped at the window's end.
type CounterPoint struct {
	At    sim.Time
	Name  string
	Value float64
}

// SetCounters attaches counter tracks to the Chrome export (replacing any
// previous set). Points must already be in deterministic order; the
// timeline recorder's Points() satisfies that.
func (r *Recorder) SetCounters(pts []CounterPoint) { r.counters = pts }
