package trace

import (
	"cmp"
	"fmt"
	"slices"

	"cellpilot/internal/sim"
)

// PhaseKind classifies one stage inside a channel transfer. A transfer
// (one message moving writer → reader) is identified by its Xfer id; the
// phase events sharing an id form the transfer's span, spread across the
// endpoint processes and the Co-Pilots that serviced it.
type PhaseKind int

// Transfer phases.
const (
	// PhasePack is the endpoint packing or unpacking cost (Pilot overhead
	// plus per-byte marshalling).
	PhasePack PhaseKind = iota
	// PhaseMailboxReq is an SPE stub posting its four-word request
	// descriptor through the outbound mailbox.
	PhaseMailboxReq
	// PhaseMailboxWait is an SPE stub blocked on the inbound mailbox for
	// the Co-Pilot's completion status.
	PhaseMailboxWait
	// PhaseCoPilotWait is the interval between a request being posted and
	// the Co-Pilot decoding it: mailbox transfer plus service-queue wait
	// plus polling quantization.
	PhaseCoPilotWait
	// PhaseCoPilotService is the Co-Pilot decoding and dispatching one
	// request.
	PhaseCoPilotService
	// PhaseCopy is a shared-memory data move: the type-4 EA-window memcpy
	// or the A1 direct-local handoff.
	PhaseCopy
	// PhaseRelay is a Co-Pilot MPI leg: relaying an SPE write onward, or
	// landing an inbound payload in the reader's local store.
	PhaseRelay
	// PhaseMPISend is an endpoint process inside MPI send (including any
	// rendezvous wait for the reader).
	PhaseMPISend
	// PhaseMPIWait is an endpoint process blocked in MPI receive.
	PhaseMPIWait
	// PhaseChunkRelay is one endpoint's leg of the pipelined chunked
	// transfer: streaming a large payload as fixed-size chunks whose DMA,
	// stack, and wire stages overlap. One event covers the whole stream on
	// that endpoint, not one per chunk.
	PhaseChunkRelay
	// PhaseChunkFrame is one individual chunk frame of a stream: the stack
	// injection (writer side) or drain (reader side) of chunk Chunk of
	// stream Stream. Frame events are annotations riding inside the
	// enclosing PhaseChunkRelay — they never compete for critical-path
	// attribution, but they let Chrome flow events link chunk k's injection
	// to chunk k's drain and give the blame analyzer per-chunk granularity.
	PhaseChunkFrame
	// PhaseChunkDMA is one chunk's LS↔EA move on the SPE's MFC DMA engine.
	// Like PhaseChunkFrame it is an annotation, but it additionally defines
	// the mfc-dma resource's occupancy intervals for queueing blame.
	PhaseChunkDMA
)

// IsAnnotation reports whether the kind is a sub-slice annotation (chunk
// frame or DMA) rather than a primary transfer stage. Annotations carry
// chunk-level detail and resource occupancy; the critical-path sweep and
// the profiler's exclusive buckets consider only primary stages, so the
// per-stage attributions keep summing to the end-to-end latency.
func (k PhaseKind) IsAnnotation() bool {
	return k == PhaseChunkFrame || k == PhaseChunkDMA
}

// String implements fmt.Stringer.
func (k PhaseKind) String() string {
	switch k {
	case PhasePack:
		return "pack"
	case PhaseMailboxReq:
		return "mbox-req"
	case PhaseMailboxWait:
		return "mbox-wait"
	case PhaseCoPilotWait:
		return "copilot-wait"
	case PhaseCoPilotService:
		return "copilot-service"
	case PhaseCopy:
		return "copy"
	case PhaseRelay:
		return "relay"
	case PhaseMPISend:
		return "mpi-send"
	case PhaseMPIWait:
		return "mpi-wait"
	case PhaseChunkRelay:
		return "chunk-relay"
	case PhaseChunkFrame:
		return "chunk-frame"
	case PhaseChunkDMA:
		return "mfc-dma"
	default:
		return fmt.Sprintf("phase(%d)", int(k))
	}
}

// PhaseEvent is one recorded transfer stage: who spent [Start, End] doing
// what, for which transfer.
type PhaseEvent struct {
	// Xfer identifies the transfer; all phases of one message share it.
	Xfer int64
	// Phase is the stage.
	Phase PhaseKind
	// Proc is the process (or Co-Pilot rank label) that executed the stage.
	Proc string
	// Channel is the channel id; ChanType its Table I type (1..5).
	Channel  int
	ChanType int
	// Bytes is the payload size of the transfer.
	Bytes      int
	Start, End sim.Time
	// Stream and Chunk annotate per-chunk events of a pipelined stream:
	// Stream is the owning stream's transfer id and Chunk the 1-based
	// chunk index. A chunk event's stream is always its own transfer, so
	// Stream equals Xfer exactly when Chunk > 0; the span log stores only
	// Xfer and fills Stream in when it expands a record, which keeps a
	// chunk frame self-describing when inspected in isolation, e.g. in a
	// flight-recorder tail. Both are zero on whole-transfer phase events.
	Stream int64
	Chunk  int
}

// Dur reports the phase duration.
func (pe PhaseEvent) Dur() sim.Time { return pe.End - pe.Start }

// RecordPhase appends a phase event, honouring the recorder's limit with
// separate drop accounting from flat events. It panics when the event
// cannot be stored exactly: Stream must equal Xfer when Chunk > 0 and be
// zero otherwise, Phase and ChanType must fit a byte, and Channel, Bytes
// and Chunk 32 bits.
func (r *Recorder) RecordPhase(pe PhaseEvent) {
	if r == nil {
		return
	}
	checkPhase(&pe)
	r.AddPhase(r.Intern(pe.Proc), pe)
}

// AddPhase is RecordPhase for a phase whose track is already numbered:
// lbl, from Intern, replaces pe.Proc, and neither pe.Proc nor pe.Stream is
// read. The caller keeps the fields within their stored widths.
func (r *Recorder) AddPhase(lbl Label, pe PhaseEvent) {
	if r.limit > 0 && r.phases.n >= r.limit {
		r.phasesDropped++
		return
	}
	p := packPhase(lbl, &pe)
	r.phases.addPhase(&p)
	r.maxXfer = max(r.maxXfer, pe.Xfer)
}

// Phases returns the recorded phase events in recording order, in a new
// slice.
func (r *Recorder) Phases() []PhaseEvent {
	if r == nil || r.phases.n == 0 {
		return nil
	}
	out := make([]PhaseEvent, 0, r.phases.n)
	for d := r.phases.reader(); d.more(); {
		p := d.phase()
		out = append(out, p.expand(&r.labels))
	}
	return out
}

// PhasesDropped reports phase events discarded past the limit.
func (r *Recorder) PhasesDropped() int { return r.phasesDropped }

// Span is one assembled transfer: every phase sharing a transfer id,
// bounded by the earliest start and latest end.
type Span struct {
	ID         int64
	Channel    int
	ChanType   int
	Bytes      int
	Start, End sim.Time
	Phases     []PhaseEvent
}

// Dur reports the span's wall (virtual) duration.
func (s Span) Dur() sim.Time { return s.End - s.Start }

// PhaseTotal sums the durations of the span's phases of one kind.
func (s Span) PhaseTotal(k PhaseKind) sim.Time {
	var total sim.Time
	for _, pe := range s.Phases {
		if pe.Phase == k {
			total += pe.Dur()
		}
	}
	return total
}

// Spans groups the recorded phase events by transfer id, ordered by start
// time (id as tie-break); each span's phases are ordered by start time,
// then phase kind. Phases recorded without an id (0) are not part of any
// transfer and are skipped. The log is decoded once, and a stable sort by
// id groups the phases, in recording order within an id, in one backing
// array that the spans' phase slices share, each capped at its own length.
// The spans take one more allocation, whatever their number.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	backing := make([]PhaseEvent, 0, r.phases.n)
	for d := r.phases.reader(); d.more(); {
		if p := d.phase(); p.xfer != 0 {
			backing = append(backing, p.expand(&r.labels))
		}
	}
	slices.SortStableFunc(backing, func(a, b PhaseEvent) int { return cmp.Compare(a.Xfer, b.Xfer) })
	n := 0
	for i := range backing {
		if i == 0 || backing[i].Xfer != backing[i-1].Xfer {
			n++
		}
	}
	out := make([]Span, 0, n)
	for lo := 0; lo < len(backing); {
		hi := lo + 1
		for hi < len(backing) && backing[hi].Xfer == backing[lo].Xfer {
			hi++
		}
		phases := backing[lo:hi:hi]
		first := phases[0]
		sp := Span{
			ID: first.Xfer, Channel: first.Channel, ChanType: first.ChanType,
			Bytes: first.Bytes, Start: first.Start, End: first.End, Phases: phases,
		}
		for _, pe := range phases[1:] {
			sp.Start = min(sp.Start, pe.Start)
			sp.End = max(sp.End, pe.End)
			sp.Bytes = max(sp.Bytes, pe.Bytes)
		}
		slices.SortFunc(phases, func(a, b PhaseEvent) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Phase, b.Phase))
		})
		out = append(out, sp)
		lo = hi
	}
	slices.SortFunc(out, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	return out
}
