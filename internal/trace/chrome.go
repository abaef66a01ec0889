package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cellpilot/internal/sim"
)

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// about://tracing and Perfetto load). Timestamps and durations are in
// microseconds; we map each CellPilot process (and each Co-Pilot rank) to
// its own thread track under a single pid.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	ID   *int64         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePid = 1

func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// WriteChrome renders the recorder's spans and events as Chrome
// trace_event JSON: one thread track per process and per Co-Pilot, a
// complete ("X") slice per transfer phase, and an instant event per flat
// completion event. Open the output in Perfetto (ui.perfetto.dev) or
// about://tracing.
func (r *Recorder) WriteChrome(w io.Writer) error {
	// Deterministic track table: every proc seen in a phase or event, in
	// sorted order.
	phases, flat := r.Phases(), r.Events()
	seen := map[string]bool{}
	for _, pe := range phases {
		seen[pe.Proc] = true
	}
	for _, ev := range flat {
		seen[ev.Proc] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	tids := make(map[string]int, len(names))
	events := make([]chromeEvent, 0, 2*len(names)+len(phases)+len(flat))
	for i, name := range names {
		tid := i + 1
		tids[name] = tid
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: chromePid, Tid: tid,
				Args: map[string]any{"sort_index": tid}},
		)
	}
	for _, pe := range phases {
		dur := usec(pe.End - pe.Start)
		name := fmt.Sprintf("%s ch%d", pe.Phase, pe.Channel)
		args := map[string]any{
			"xfer": pe.Xfer, "channel": pe.Channel, "bytes": pe.Bytes,
			"phase": pe.Phase.String(),
		}
		if pe.Chunk > 0 {
			name = fmt.Sprintf("%s %d ch%d", pe.Phase, pe.Chunk-1, pe.Channel)
			args["stream"] = pe.Stream
			args["chunk"] = pe.Chunk - 1
		}
		events = append(events, chromeEvent{
			Name: name,
			Cat:  fmt.Sprintf("type%d", pe.ChanType),
			Ph:   "X", Pid: chromePid, Tid: tids[pe.Proc],
			Ts: usec(pe.Start), Dur: &dur,
			Args: args,
		})
	}
	events = append(events, r.flowEvents(tids)...)
	events = append(events, chunkFlowEvents(phases, tids)...)
	for _, ev := range flat {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s ch%d", ev.Kind, ev.Channel),
			Cat:  "event",
			Ph:   "i", Pid: chromePid, Tid: tids[ev.Proc],
			Ts: usec(ev.At), S: "t",
			Args: map[string]any{"channel": ev.Channel, "bytes": ev.Bytes, "xfer": ev.Xfer},
		})
	}
	// Counter ("C") events: one per (series, window) sample. Perfetto
	// renders each distinct name as its own counter track under the pid.
	for _, cp := range r.counters {
		events = append(events, chromeEvent{
			Name: cp.Name,
			Cat:  "counter",
			Ph:   "C", Pid: chromePid,
			Ts:   usec(cp.At),
			Args: map[string]any{"value": cp.Value},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	})
}

// flowEvents links each transfer's phases across the tracks they ran on
// with Chrome flow ("s"/"t"/"f") events, so a transfer reads as one
// arrowed chain writer → Co-Pilot → reader in Perfetto. A flow arrow is
// emitted at the first phase of each distinct track the transfer visits;
// transfers confined to a single track need no arrows.
func (r *Recorder) flowEvents(tids map[string]int) []chromeEvent {
	spans := r.Spans()
	var out []chromeEvent
	for _, sp := range spans {
		// Anchor points: the first phase on each track, in timeline order.
		type anchor struct {
			proc string
			at   sim.Time
		}
		var anchors []anchor
		seen := map[string]bool{}
		for _, pe := range sp.Phases {
			if seen[pe.Proc] {
				continue
			}
			seen[pe.Proc] = true
			anchors = append(anchors, anchor{proc: pe.Proc, at: pe.Start})
		}
		if len(anchors) < 2 {
			continue
		}
		id := sp.ID
		for i, a := range anchors {
			ev := chromeEvent{
				Name: "xfer", Cat: "flow",
				Pid: chromePid, Tid: tids[a.proc],
				Ts: usec(a.at), ID: &id,
			}
			switch {
			case i == 0:
				ev.Ph = "s"
			case i == len(anchors)-1:
				ev.Ph = "f"
				ev.Bp = "e"
			default:
				ev.Ph = "t"
			}
			out = append(out, ev)
		}
	}
	return out
}

// chunkFlowEvents links each individual chunk frame across the tracks it
// visits: chunk k's injection on the writer (or Co-Pilot) track arrows to
// chunk k's drain on the reader side, so a pipelined stream reads as N
// parallel arrows instead of one whole-transfer arrow. Flow ids pack the
// stream id and chunk index so chunks of the same stream stay distinct.
func chunkFlowEvents(phases []PhaseEvent, tids map[string]int) []chromeEvent {
	type ckey struct {
		stream int64
		chunk  int
	}
	frames := map[ckey][]PhaseEvent{}
	var keys []ckey
	for _, pe := range phases {
		if pe.Phase != PhaseChunkFrame || pe.Chunk == 0 {
			continue
		}
		k := ckey{pe.Stream, pe.Chunk}
		if _, ok := frames[k]; !ok {
			keys = append(keys, k)
		}
		frames[k] = append(frames[k], pe)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stream != keys[j].stream {
			return keys[i].stream < keys[j].stream
		}
		return keys[i].chunk < keys[j].chunk
	})
	var out []chromeEvent
	for _, k := range keys {
		fs := frames[k]
		if len(fs) < 2 {
			continue // frame seen on one side only: nothing to link
		}
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Start != fs[j].Start {
				return fs[i].Start < fs[j].Start
			}
			return fs[i].Proc < fs[j].Proc
		})
		id := k.stream<<12 | int64(k.chunk)
		for i, pe := range fs {
			ev := chromeEvent{
				Name: "chunk", Cat: "flow",
				Pid: chromePid, Tid: tids[pe.Proc],
				Ts: usec(pe.Start), ID: &id,
			}
			switch {
			case i == 0:
				ev.Ph = "s"
			case i == len(fs)-1:
				ev.Ph = "f"
				ev.Bp = "e"
			default:
				ev.Ph = "t"
			}
			out = append(out, ev)
		}
	}
	return out
}
