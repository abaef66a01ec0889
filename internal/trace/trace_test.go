package trace

import (
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

func TestRecorderAggregation(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{At: 1 * sim.Microsecond, Kind: KindWrite, Proc: "a", Channel: 0, Bytes: 100})
	r.Record(Event{At: 2 * sim.Microsecond, Kind: KindRead, Proc: "b", Channel: 0, Bytes: 100})
	r.Record(Event{At: 3 * sim.Microsecond, Kind: KindWrite, Proc: "a", Channel: 0, Bytes: 50})
	r.Record(Event{At: 9 * sim.Microsecond, Kind: KindWrite, Proc: "c", Channel: 2, Bytes: 8})
	stats := r.ByChannel()
	if len(stats) != 2 {
		t.Fatalf("channels = %d", len(stats))
	}
	c0 := stats[0]
	if c0.Channel != 0 || c0.Writes != 2 || c0.Reads != 1 || c0.Bytes != 150 {
		t.Fatalf("c0 = %+v", c0)
	}
	if c0.First != 1*sim.Microsecond || c0.Last != 3*sim.Microsecond {
		t.Fatalf("span = %s..%s", c0.First, c0.Last)
	}
	if !strings.Contains(r.Summary(), "channel 2") {
		t.Fatalf("summary: %s", r.Summary())
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindWrite, Channel: i})
	}
	if len(r.Events()) != 2 || r.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(r.Events()), r.Dropped())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{}) // must not panic
}

func TestEventsReturnsCopy(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{At: 1, Kind: KindWrite, Proc: "a", Channel: 0, Bytes: 4})
	r.Record(Event{At: 2, Kind: KindRead, Proc: "b", Channel: 0, Bytes: 4})
	evs := r.Events()
	evs[0].Channel = 99
	evs[0].Kind = KindRead
	_ = append(evs[:1], Event{Channel: 42}) // clobbers the copy, not the recorder
	fresh := r.Events()
	if fresh[0].Channel != 0 || fresh[0].Kind != KindWrite || fresh[1].Channel != 0 {
		t.Fatalf("recorder state corrupted through Events(): %+v", fresh)
	}
	stats := r.ByChannel()
	if len(stats) != 1 || stats[0].Channel != 0 {
		t.Fatalf("aggregation saw corrupted events: %+v", stats)
	}
}

func TestSummaryDegenerateSpans(t *testing.T) {
	// Empty recorder: no per-channel lines, no garbage.
	empty := NewRecorder(0)
	if s := empty.Summary(); !strings.Contains(s, "0 events") || strings.Contains(s, "channel") {
		t.Fatalf("empty summary: %q", s)
	}

	// One event at t=0 and one event at t>0: both are point observations
	// with no interval, so both must render span=0s.
	r := NewRecorder(0)
	r.Record(Event{At: 0, Kind: KindWrite, Proc: "a", Channel: 0, Bytes: 1})
	r.Record(Event{At: 7 * sim.Microsecond, Kind: KindWrite, Proc: "a", Channel: 1, Bytes: 1})
	for _, st := range r.ByChannel() {
		if st.Span() != 0 {
			t.Fatalf("single-event channel %d span = %s, want 0", st.Channel, st.Span())
		}
	}
	sum := r.Summary()
	if got := strings.Count(sum, "span=0s"); got != 2 {
		t.Fatalf("want two span=0s lines, got %d in:\n%s", got, sum)
	}

	// Two events define a real interval again.
	r.Record(Event{At: 9 * sim.Microsecond, Kind: KindRead, Proc: "b", Channel: 1, Bytes: 1})
	for _, st := range r.ByChannel() {
		if st.Channel == 1 && st.Span() != 2*sim.Microsecond {
			t.Fatalf("channel 1 span = %s", st.Span())
		}
	}
}

func TestByChannelEdgeCases(t *testing.T) {
	// Empty recorder.
	if got := NewRecorder(0).ByChannel(); len(got) != 0 {
		t.Fatalf("empty ByChannel = %+v", got)
	}
	// Dropped events beyond the limit are accounted, not aggregated.
	lim := NewRecorder(1)
	lim.Record(Event{At: 1, Kind: KindWrite, Proc: "a", Channel: 0, Bytes: 8})
	lim.Record(Event{At: 2, Kind: KindWrite, Proc: "a", Channel: 0, Bytes: 8})
	if lim.Dropped() != 1 {
		t.Fatalf("dropped = %d", lim.Dropped())
	}
	st := lim.ByChannel()
	if len(st) != 1 || st[0].Writes != 1 || st[0].Bytes != 8 {
		t.Fatalf("limited aggregation = %+v", st)
	}
	if !strings.Contains(lim.Summary(), "(1 dropped)") {
		t.Fatalf("summary lacks drop accounting: %q", lim.Summary())
	}
}
