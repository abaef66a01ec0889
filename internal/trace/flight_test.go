package trace

import (
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

func flightEvent(i int) PhaseEvent {
	return PhaseEvent{
		Xfer: int64(i), Phase: PhasePack, Proc: "p",
		Channel: 1, ChanType: 4, Bytes: 64,
		Start: sim.Time(i) * sim.Microsecond, End: sim.Time(i)*sim.Microsecond + 100,
	}
}

// newFlight is NewFlight with the single track "p" that flightEvent
// records on.
func newFlight(depth int) *Flight {
	f := NewFlight(depth)
	f.SetNames([]string{"p"})
	return f
}

func TestFlightRingWraps(t *testing.T) {
	f := newFlight(4)
	if f.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", f.Depth())
	}
	for i := 1; i <= 10; i++ {
		f.Add(0, flightEvent(i))
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	tail := f.Tail(100) // more than depth: clamped to what is retained
	if len(tail) != 4 {
		t.Fatalf("Tail(100) kept %d events, want 4", len(tail))
	}
	// Chronological order: the oldest retained first, newest last.
	for i, pe := range tail {
		if want := int64(7 + i); pe.Xfer != want {
			t.Fatalf("tail[%d].Xfer = %d, want %d (tail %+v)", i, pe.Xfer, want, tail)
		}
	}
	if got := f.Tail(2); len(got) != 2 || got[1].Xfer != 10 {
		t.Fatalf("Tail(2) = %+v, want last two", got)
	}
}

func TestFlightBeforeWrap(t *testing.T) {
	f := newFlight(8)
	for i := 1; i <= 3; i++ {
		f.Add(0, flightEvent(i))
	}
	tail := f.Tail(8)
	if len(tail) != 3 {
		t.Fatalf("Tail kept %d events, want 3", len(tail))
	}
	for i, pe := range tail {
		if pe.Xfer != int64(i+1) {
			t.Fatalf("tail[%d].Xfer = %d, want %d", i, pe.Xfer, i+1)
		}
	}
	if got := f.Tail(0); len(got) != 3 {
		t.Fatalf("Tail(0) = %+v, want all 3 retained events", got)
	}
}

func TestFlightDefaults(t *testing.T) {
	if f := NewFlight(0); f.Depth() != DefaultFlightDepth {
		t.Fatalf("default depth = %d, want %d", f.Depth(), DefaultFlightDepth)
	}
	if f := NewFlight(-3); f.Depth() != DefaultFlightDepth {
		t.Fatalf("negative depth = %d, want %d", f.Depth(), DefaultFlightDepth)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Add(0, flightEvent(1)) // must not panic
	if f.Tail(4) != nil || f.TailLines(4) != nil || f.Total() != 0 || f.Depth() != 0 {
		t.Fatal("nil Flight is not inert")
	}
}

func TestFlightTailLines(t *testing.T) {
	f := NewFlight(4)
	f.SetNames([]string{"copilot@cell0"})
	f.Add(0, PhaseEvent{
		Xfer: 7, Phase: PhaseRelay, Proc: "copilot@cell0",
		Channel: 3, ChanType: 5, Bytes: 1600,
		Start: 250 * sim.Microsecond, End: 300 * sim.Microsecond,
	})
	lines := f.TailLines(4)
	if len(lines) != 1 {
		t.Fatalf("TailLines = %v, want 1 line", lines)
	}
	for _, want := range []string{"relay", "copilot@cell0", "ch=3", "type=5", "bytes=1600", "xfer=7"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q lacks %q", lines[0], want)
		}
	}
}
