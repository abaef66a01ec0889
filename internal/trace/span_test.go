package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

func TestSpansGroupByTransfer(t *testing.T) {
	r := NewRecorder(0)
	us := sim.Microsecond
	r.RecordPhase(PhaseEvent{Xfer: 7, Phase: PhaseMailboxReq, Proc: "spe", Channel: 1, ChanType: 2, Bytes: 64, Start: 2 * us, End: 3 * us})
	r.RecordPhase(PhaseEvent{Xfer: 7, Phase: PhaseCoPilotService, Proc: "cp", Channel: 1, ChanType: 2, Bytes: 64, Start: 4 * us, End: 5 * us})
	r.RecordPhase(PhaseEvent{Xfer: 7, Phase: PhaseCoPilotWait, Proc: "cp", Channel: 1, ChanType: 2, Bytes: 64, Start: 3 * us, End: 4 * us})
	r.RecordPhase(PhaseEvent{Xfer: 9, Phase: PhaseMPISend, Proc: "main", Channel: 0, ChanType: 1, Bytes: 8, Start: 1 * us, End: 2 * us})
	r.RecordPhase(PhaseEvent{Xfer: 0, Phase: PhasePack, Proc: "main", Channel: 0, Start: 0, End: 1 * us}) // uncorrelated

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Ordered by start: xfer 9 (1us) before xfer 7 (2us).
	if spans[0].ID != 9 || spans[1].ID != 7 {
		t.Fatalf("span order: %d, %d", spans[0].ID, spans[1].ID)
	}
	sp := spans[1]
	if sp.Start != 2*us || sp.End != 5*us || sp.Dur() != 3*us {
		t.Fatalf("span bounds: %s..%s", sp.Start, sp.End)
	}
	if len(sp.Phases) != 3 {
		t.Fatalf("phases = %d", len(sp.Phases))
	}
	// Phases sorted by start within the span.
	if sp.Phases[0].Phase != PhaseMailboxReq || sp.Phases[1].Phase != PhaseCoPilotWait {
		t.Fatalf("phase order: %v, %v", sp.Phases[0].Phase, sp.Phases[1].Phase)
	}
	if sp.PhaseTotal(PhaseCoPilotWait) != 1*us {
		t.Fatalf("copilot wait total = %s", sp.PhaseTotal(PhaseCoPilotWait))
	}
	if sp.ChanType != 2 || sp.Bytes != 64 {
		t.Fatalf("span meta: %+v", sp)
	}
}

func TestPhaseLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.RecordPhase(PhaseEvent{Xfer: int64(i + 1), Phase: PhaseCopy})
	}
	if len(r.Phases()) != 2 || r.PhasesDropped() != 3 {
		t.Fatalf("phases=%d dropped=%d", len(r.Phases()), r.PhasesDropped())
	}
	// Flat-event accounting is independent.
	if r.Dropped() != 0 {
		t.Fatalf("event dropped = %d", r.Dropped())
	}
}

func TestNilRecorderSpanSafe(t *testing.T) {
	var r *Recorder
	r.RecordPhase(PhaseEvent{}) // must not panic
	if r.Phases() != nil || r.Spans() != nil || r.Events() != nil {
		t.Fatal("nil recorder accessors should return nil")
	}
}

func TestPhaseKindStrings(t *testing.T) {
	kinds := []PhaseKind{PhasePack, PhaseMailboxReq, PhaseMailboxWait, PhaseCoPilotWait,
		PhaseCoPilotService, PhaseCopy, PhaseRelay, PhaseMPISend, PhaseMPIWait}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "phase(") || seen[s] {
			t.Fatalf("bad or duplicate name for %d: %q", int(k), s)
		}
		seen[s] = true
	}
	if got := PhaseKind(99).String(); got != "phase(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestWriteChrome(t *testing.T) {
	r := NewRecorder(0)
	us := sim.Microsecond
	r.RecordPhase(PhaseEvent{Xfer: 1, Phase: PhaseMPISend, Proc: "main(rank0@node0)", Channel: 0, ChanType: 1, Bytes: 8, Start: 1 * us, End: 2 * us})
	r.RecordPhase(PhaseEvent{Xfer: 1, Phase: PhaseMPIWait, Proc: "peer(rank1@node1)", Channel: 0, ChanType: 1, Bytes: 8, Start: 0, End: 3 * us})
	r.Record(Event{At: 2 * us, Kind: KindWrite, Proc: "main(rank0@node0)", Channel: 0, Bytes: 8, Xfer: 1})

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var threads, slices, instants int
	tids := map[int]bool{}
	for _, ev := range parsed.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads++
		case ev.Ph == "X":
			slices++
			tids[ev.Tid] = true
		case ev.Ph == "i":
			instants++
		}
	}
	if threads != 2 {
		t.Fatalf("thread_name events = %d, want 2", threads)
	}
	if slices != 2 || len(tids) != 2 {
		t.Fatalf("slices = %d on %d tracks", slices, len(tids))
	}
	if instants != 1 {
		t.Fatalf("instant events = %d", instants)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{At: 5 * sim.Microsecond, Kind: KindWrite, Proc: "a", Channel: 3, Bytes: 16, Xfer: 2})
	r.Record(Event{At: 6 * sim.Microsecond, Kind: KindRead, Proc: "b", Channel: 3, Bytes: 16, Xfer: 2})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var first struct {
		AtNs    int64  `json:"at_ns"`
		Kind    string `json:"kind"`
		Channel int    `json:"channel"`
		Xfer    int64  `json:"xfer"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.AtNs != 5000 || first.Kind != "write" || first.Channel != 3 || first.Xfer != 2 {
		t.Fatalf("first line: %+v", first)
	}
}

// SetCounters adds "C" (counter) events to the Chrome export, one per
// sample, under the shared pid.
func TestWriteChromeCounterEvents(t *testing.T) {
	r := NewRecorder(0)
	us := sim.Microsecond
	r.RecordPhase(PhaseEvent{Xfer: 1, Phase: PhaseMPISend, Proc: "main(rank0@node0)", Channel: 0, ChanType: 1, Bytes: 8, Start: 1 * us, End: 2 * us})
	r.SetCounters([]CounterPoint{
		{At: 1 * us, Name: "backlog/total", Value: 3},
		{At: 2 * us, Name: "backlog/total", Value: 1},
		{At: 2 * us, Name: "net/bytes", Value: 512},
	})
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var counters int
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		counters++
		if _, ok := ev.Args["value"]; !ok {
			t.Fatalf("counter event %q lacks args.value", ev.Name)
		}
	}
	if counters != 3 {
		t.Fatalf("counter events = %d, want 3", counters)
	}
}

// Flow events: a transfer whose phases run on several tracks is linked
// with ph "s"/"f" arrows carrying the transfer id; single-track transfers
// get none.
func TestChromeFlowEvents(t *testing.T) {
	r := NewRecorder(0)
	r.RecordPhase(PhaseEvent{Xfer: 1, Phase: PhaseMailboxReq, Proc: "writer", Channel: 1,
		Start: 0, End: 10})
	r.RecordPhase(PhaseEvent{Xfer: 1, Phase: PhaseCoPilotService, Proc: "copilot", Channel: 1,
		Start: 10, End: 30})
	r.RecordPhase(PhaseEvent{Xfer: 1, Phase: PhaseMailboxWait, Proc: "reader", Channel: 1,
		Start: 30, End: 50})
	r.RecordPhase(PhaseEvent{Xfer: 2, Phase: PhasePack, Proc: "writer", Channel: 2,
		Start: 60, End: 70}) // single track: no flow arrows

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID *int64 `json:"id"`
			Bp string `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v", err)
	}
	var starts, steps, finishes int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s", "t", "f":
			if ev.ID == nil || *ev.ID != 1 {
				t.Fatalf("flow event %+v does not carry transfer id 1", ev)
			}
			switch ev.Ph {
			case "s":
				starts++
			case "t":
				steps++
			case "f":
				finishes++
				if ev.Bp != "e" {
					t.Errorf("finishing flow event lacks bp=e: %+v", ev)
				}
			}
		}
	}
	if starts != 1 || steps != 1 || finishes != 1 {
		t.Fatalf("flow events s/t/f = %d/%d/%d, want 1/1/1", starts, steps, finishes)
	}
}
