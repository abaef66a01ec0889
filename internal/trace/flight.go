package trace

import (
	"fmt"
)

// Flight is an always-on bounded ring buffer of the most recent phase
// events — a flight recorder. Unlike the Recorder, which is opt-in and
// keeps everything up to a limit, the Flight keeps only the last N events
// and is cheap enough to leave attached to every run; its tail is stitched
// into fault diagnostics so a *ChannelFault or FaultSummary ships the
// moments leading up to the failure. It stores the Recorder's compact
// phase record; its tracks are numbered by the names its App sets through
// SetNames.
//
// Like the Recorder it is used from simulation context only, which is
// single-threaded by construction.
type Flight struct {
	buf    []phaseRec
	next   int
	total  int64
	labels *labels
}

// DefaultFlightDepth is the ring depth used when none is given.
const DefaultFlightDepth = 256

// NewFlight creates a flight recorder keeping the last depth phase events
// (depth <= 0 selects DefaultFlightDepth).
func NewFlight(depth int) *Flight {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &Flight{buf: make([]phaseRec, 0, depth)}
}

// SetNames numbers the ring's tracks by names: label i is names[i]. An App
// sets them once, when Run has named every track, before its first Add. It
// panics past MaxLabels names.
func (f *Flight) SetNames(names []string) {
	if len(names) > MaxLabels {
		panic(fmt.Sprintf("trace: %d track names, more than MaxLabels (%d)", len(names), MaxLabels))
	}
	f.labels = &labels{names: names}
}

// Add appends a phase event, overwriting the oldest past the depth. lbl
// numbers the phase's track among the names set by SetNames and replaces
// pe.Proc; neither pe.Proc nor pe.Stream is read, and the caller keeps the
// other fields within their stored widths (see Recorder.RecordPhase).
func (f *Flight) Add(lbl Label, pe PhaseEvent) {
	if f == nil {
		return
	}
	f.total++
	rec := packPhase(lbl, &pe)
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, rec)
		return
	}
	f.buf[f.next] = rec
	f.next = (f.next + 1) % len(f.buf)
}

// Depth reports the ring capacity.
func (f *Flight) Depth() int {
	if f == nil {
		return 0
	}
	return cap(f.buf)
}

// Total reports how many events were ever recorded (including overwritten
// ones).
func (f *Flight) Total() int64 {
	if f == nil {
		return 0
	}
	return f.total
}

// Tail returns the last n retained events in chronological order (all of
// them when n <= 0 or n exceeds the retained count).
func (f *Flight) Tail(n int) []PhaseEvent {
	if f == nil || len(f.buf) == 0 {
		return nil
	}
	kept := len(f.buf)
	if n <= 0 || n > kept {
		n = kept
	}
	out := make([]PhaseEvent, n)
	// The oldest retained record sits at next once the ring has wrapped
	// (next is 0 until then).
	for i := range out {
		out[i] = f.buf[(f.next+kept-n+i)%kept].expand(f.labels)
	}
	return out
}

// TailLines renders the last n retained events as human-readable lines,
// oldest first — the form attached to fault reports.
func (f *Flight) TailLines(n int) []string {
	tail := f.Tail(n)
	if len(tail) == 0 {
		return nil
	}
	lines := make([]string, 0, len(tail))
	for _, pe := range tail {
		lines = append(lines, fmt.Sprintf(
			"t=%-12s %-18s %-14s ch=%-3d type=%d bytes=%-7d xfer=%-5d dur=%s",
			pe.Start, pe.Proc, pe.Phase, pe.Channel, pe.ChanType,
			pe.Bytes, pe.Xfer, pe.Dur()))
	}
	return lines
}
