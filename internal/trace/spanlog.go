package trace

import (
	"fmt"
	"math"

	"cellpilot/internal/sim"
)

// This file is the span log's storage: the compact records the Recorder
// and the Flight keep in place of PhaseEvent and Event, the label table
// that numbers their tracks, and the fixed-size blocks the Recorder
// appends to. PhaseEvent and Event are the read form; every accessor
// expands records into them.

// Label numbers a track — a process name or a Co-Pilot rank label — in a
// label table. Records store it in place of the track's name.
type Label uint16

// MaxLabels is the most names one label table holds. An App numbers one
// track per process and per Co-Pilot; a Recorder's table holds the
// distinct names of every App that records into it.
const MaxLabels = 1 << 16

// labels is a label table: names numbered in order of first use. The zero
// value is empty and ready to use.
type labels struct {
	names []string
	ids   map[string]Label
}

// intern returns name's label, numbering it on first use. It panics when
// a new name would exceed MaxLabels.
func (t *labels) intern(name string) Label {
	if l, ok := t.ids[name]; ok {
		return l
	}
	if len(t.names) == MaxLabels {
		panic(fmt.Sprintf("trace: label table full: %d names, cannot add %q", MaxLabels, name))
	}
	if t.ids == nil {
		t.ids = map[string]Label{}
	}
	l := Label(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = l
	return l
}

// name returns the name numbered l.
func (t *labels) name(l Label) string { return t.names[l] }

// phaseRec is a PhaseEvent as the span log stores it, in 40 bytes: the
// track as a Label, 32-bit channel, bytes and chunk fields, and no stream
// field, since a chunk event's stream is its transfer (see PhaseEvent).
type phaseRec struct {
	start, end sim.Time
	xfer       int64
	channel    int32
	bytes      int32
	chunk      int32
	label      Label
	phase      uint8
	chanType   uint8
}

func packPhase(lbl Label, pe *PhaseEvent) phaseRec {
	return phaseRec{
		start: pe.Start, end: pe.End, xfer: pe.Xfer,
		channel: int32(pe.Channel), bytes: int32(pe.Bytes), chunk: int32(pe.Chunk),
		label: lbl, phase: uint8(pe.Phase), chanType: uint8(pe.ChanType),
	}
}

func (p *phaseRec) expand(t *labels) PhaseEvent {
	pe := PhaseEvent{
		Xfer: p.xfer, Phase: PhaseKind(p.phase), Proc: t.name(p.label),
		Channel: int(p.channel), ChanType: int(p.chanType), Bytes: int(p.bytes),
		Start: p.start, End: p.end, Chunk: int(p.chunk),
	}
	if p.chunk > 0 {
		pe.Stream = p.xfer
	}
	return pe
}

// checkPhase panics when pe cannot be stored exactly: a field past its
// record width, or a stream id that is not its transfer's.
func checkPhase(pe *PhaseEvent) {
	var stream int64
	if pe.Chunk > 0 {
		stream = pe.Xfer
	}
	if pe.Stream != stream {
		panic(fmt.Sprintf("trace: phase event with chunk %d has stream %d, want %d", pe.Chunk, pe.Stream, stream))
	}
	checkWidth("phase", int(pe.Phase), 0, math.MaxUint8)
	checkWidth("channel type", pe.ChanType, 0, math.MaxUint8)
	checkWidth("channel", pe.Channel, math.MinInt32, math.MaxInt32)
	checkWidth("bytes", pe.Bytes, math.MinInt32, math.MaxInt32)
	checkWidth("chunk", pe.Chunk, math.MinInt32, math.MaxInt32)
}

func checkWidth(field string, v, lo, hi int) {
	if v < lo || v > hi {
		panic(fmt.Sprintf("trace: %s %d outside the stored range [%d, %d]", field, v, lo, hi))
	}
}

// eventRec is an Event as the span log stores it, in 32 bytes.
type eventRec struct {
	at      sim.Time
	xfer    int64
	channel int32
	bytes   int32
	label   Label
	kind    uint8
}

func packEvent(lbl Label, ev *Event) eventRec {
	return eventRec{
		at: ev.At, xfer: ev.Xfer, channel: int32(ev.Channel), bytes: int32(ev.Bytes),
		label: lbl, kind: uint8(ev.Kind),
	}
}

func (e *eventRec) expand(t *labels) Event {
	return Event{
		At: e.at, Kind: Kind(e.kind), Proc: t.name(e.label),
		Channel: int(e.channel), Bytes: int(e.bytes), Xfer: e.xfer,
	}
}

func checkEvent(ev *Event) {
	checkWidth("kind", int(ev.Kind), 0, math.MaxUint8)
	checkWidth("channel", ev.Channel, math.MinInt32, math.MaxInt32)
	checkWidth("bytes", ev.Bytes, math.MinInt32, math.MaxInt32)
}

// blockShift sizes the blocks: 512 records, 20 KiB of phases or 16 KiB of
// events, each an exact allocation size class.
const (
	blockShift = 9
	blockLen   = 1 << blockShift
)

// blocks is an append-only record log in fixed-size blocks. A block is
// allocated by the first record it holds and is never copied, so the log
// grows without the regrowth copies of an append-grown slice, and an empty
// log allocates nothing.
type blocks[T any] struct {
	list []*[blockLen]T
	n    int
}

func (b *blocks[T]) add(v T) {
	if b.n&(blockLen-1) == 0 {
		b.list = append(b.list, new([blockLen]T))
	}
	b.list[b.n>>blockShift][b.n&(blockLen-1)] = v
	b.n++
}

func (b *blocks[T]) at(i int) *T { return &b.list[i>>blockShift][i&(blockLen-1)] }
