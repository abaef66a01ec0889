package core

import (
	"strings"
	"testing"

	"cellpilot/internal/trace"
)

// chunkEvents groups the recorded per-chunk annotations (frame and
// mfc-dma) by owning stream id.
func chunkEvents(rec *trace.Recorder) map[int64][]trace.PhaseEvent {
	out := map[int64][]trace.PhaseEvent{}
	for _, pe := range rec.Phases() {
		if pe.Phase == trace.PhaseChunkFrame || pe.Phase == trace.PhaseChunkDMA {
			out[pe.Xfer] = append(out[pe.Xfer], pe)
		}
	}
	return out
}

// E-CS1: chunk annotations are self-describing — each carries the owning
// stream id and a 1-based chunk index.
func TestChunkSpansSelfDescribing(t *testing.T) {
	const payload = 64 << 10
	opts := Options{Transfer: TransferOptions{ChunkSize: 8 << 10}}

	full := trace.NewRecorder(0)
	runType1Bounce(t, payload, opts, Sinks{Trace: full}, 0)
	all := chunkEvents(full)
	if len(all) < 2 {
		t.Fatalf("chunked bounce produced %d streams with chunk events, want 2 (request + reply)", len(all))
	}
	for xfer, evs := range all {
		for _, pe := range evs {
			if pe.Stream != xfer || pe.Chunk < 1 {
				t.Fatalf("chunk annotation not self-describing: %+v", pe)
			}
		}
	}
}

// E-CS2: a chunked run with a meter attached publishes the in-flight
// stream backlog gauges, live value plus high-water, for both directions.
func TestStreamInflightGauges(t *testing.T) {
	meter := NewMeter()
	runType1Bounce(t, 64<<10, Options{Transfer: TransferOptions{ChunkSize: 8 << 10}}, Sinks{Metrics: meter}, 0)
	names := map[string]bool{}
	for _, g := range meter.Registry().GaugeNames() {
		if strings.HasPrefix(g, "copilot/stream/") {
			names[g] = true
		}
	}
	for _, want := range []string{
		"copilot/stream/inflight_send",
		"copilot/stream/inflight_send_highwater",
		"copilot/stream/inflight_recv",
		"copilot/stream/inflight_recv_highwater",
	} {
		if !names[want] {
			t.Fatalf("gauge %s missing; stream gauges: %v", want, names)
		}
	}
	if hw := meter.Registry().Gauge("copilot/stream/inflight_send_highwater").Value(); hw < 1 {
		t.Fatalf("send high-water %v, want >= 1 on a pipelined stream", hw)
	}
	if hw := meter.Registry().Gauge("copilot/stream/inflight_recv_highwater").Value(); hw < 1 {
		t.Fatalf("recv high-water %v, want >= 1 on a pipelined stream", hw)
	}
}
