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
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindRead:
		return "read"
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

// Recorder accumulates events and phase events up to a limit each
// (0 = unlimited), storing them as delta-varint records in byte chunks
// with each track's name numbered once in the recorder's label table (see
// spanlog.go). Several Apps may record into one Recorder in turn; each
// interns its names into the same table, so Phases and Events read back
// every App's records under its own names, and each numbers its transfers
// after the highest id already stored (MaxXfer), so Spans keeps every
// App's transfers apart. It is used from simulation context only, which
// is single-threaded by construction.
type Recorder struct {
	labels  labels
	limit   int
	dropped int
	events  spanLog

	phases        spanLog
	phasesDropped int

	maxXfer  int64
	counters []CounterPoint
}

// NewRecorder creates a recorder keeping at most limit events and limit
// phase events (0 = unlimited). It allocates no record storage: a chunk is
// allocated by the first record it holds.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Record appends an event, dropping it (with accounting) past the limit.
// It panics when a field does not fit its stored width (32-bit channel
// and bytes).
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	checkEvent(&ev)
	r.AddEvent(r.Intern(ev.Proc), ev)
}

// Intern returns the label that numbers name in the recorder's table,
// numbering it on first use. Apps recording into the recorder in turn
// share the table. It panics when a new name would exceed MaxLabels.
func (r *Recorder) Intern(name string) Label { return r.labels.intern(name) }

// AddEvent is Record for an event whose track is already numbered: lbl,
// from Intern, replaces ev.Proc, which is not read. The caller keeps the
// fields within their stored widths.
func (r *Recorder) AddEvent(lbl Label, ev Event) {
	if r.limit > 0 && r.events.n >= r.limit {
		r.dropped++
		return
	}
	r.events.addEvent(lbl, &ev)
	r.maxXfer = max(r.maxXfer, ev.Xfer)
}

// Events returns the recorded events in order, in a new slice.
func (r *Recorder) Events() []Event {
	if r == nil || r.events.n == 0 {
		return nil
	}
	out := make([]Event, 0, r.events.n)
	for d := r.events.reader(); d.more(); {
		out = append(out, d.event(&r.labels))
	}
	return out
}

// Dropped reports events discarded past the limit.
func (r *Recorder) Dropped() int { return r.dropped }

// MaxXfer returns the highest transfer id among the stored events and
// phase events, or 0 when none carries one. Records dropped past the
// limit do not count. An App numbers its own transfers after it, so Apps
// recording into one Recorder in turn never share a transfer id.
func (r *Recorder) MaxXfer() int64 { return r.maxXfer }

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

// ByChannel aggregates events per channel id, decoding the log once.
func (r *Recorder) ByChannel() []ChannelStats {
	agg := map[int]*ChannelStats{}
	var d logReader
	if r != nil {
		d = r.events.reader()
	}
	for d.more() {
		ev := d.event(&r.labels)
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
	fmt.Fprintf(&b, "trace: %d events (%d dropped)\n", r.events.n, r.dropped)
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
