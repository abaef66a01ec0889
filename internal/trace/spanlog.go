package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"cellpilot/internal/sim"
)

// This file is the span log's storage: the label table that numbers
// tracks, the Flight's fixed-width phase record, and the Recorder's
// delta-varint records in byte chunks. PhaseEvent and Event are the read
// form; every accessor expands or decodes records into them.

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

// phaseRec is a PhaseEvent at its stored widths, in 40 bytes: the track
// as a Label, 32-bit channel, bytes and chunk fields, and no stream field,
// since a chunk event's stream is its transfer (see PhaseEvent). It is the
// Flight's ring slot, and the form the Recorder encodes from and decodes
// to.
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

func checkEvent(ev *Event) {
	checkWidth("kind", int(ev.Kind), 0, math.MaxUint8)
	checkWidth("channel", ev.Channel, math.MinInt32, math.MaxInt32)
	checkWidth("bytes", ev.Bytes, math.MinInt32, math.MaxInt32)
}

// spanLog is the Recorder's log of one record kind, phases or events. A
// record is a run of varints: its head, the time (a phase's start),
// transfer, channel and bytes as differences from the previous record's,
// wrapping where they overflow, then its other fields as they are (see
// addPhase and addEvent). Consecutive records are close in time and mostly
// belong to one transfer or a neighbour, so most differences take a byte
// or two: a chaos-observed phase takes 12.3 bytes, an event 7.7.
//
// Records go into chunks of chunkLen bytes, and none straddles two. A
// chunk is allocated when the last one's spare capacity might not hold the
// next record, and is never copied, so the log grows without the regrowth
// copies of an append-grown slice, and an empty log allocates nothing.
type spanLog struct {
	chunks [][]byte
	n      int     // records held
	prev   recHead // the last record's head
}

// recHead is the part of a record stored as differences from the previous
// record's.
type recHead struct {
	at      sim.Time
	xfer    int64
	channel int32
	bytes   int32
}

// chunkLen is 16 KiB, an exact allocation size class: about 1,300
// chaos-observed phases.
const chunkLen = 16 << 10

// maxRecLen bounds a record, an event's as well as a phase's: three 64-bit
// values at up to 10 bytes, four 32-bit ones (a label counted as one) at 5
// and two raw bytes.
const maxRecLen = 3*binary.MaxVarintLen64 + 4*binary.MaxVarintLen32 + 2

// tail returns the last chunk, first adding one when it might not hold
// another record.
func (l *spanLog) tail() *[]byte {
	if k := len(l.chunks); k == 0 || cap(l.chunks[k-1])-len(l.chunks[k-1]) < maxRecLen {
		l.chunks = append(l.chunks, make([]byte, 0, chunkLen))
	}
	return &l.chunks[len(l.chunks)-1]
}

// appendHead appends h as differences from the previous record's head and
// counts the record.
func (l *spanLog) appendHead(b []byte, h recHead) []byte {
	b = binary.AppendVarint(b, int64(h.at-l.prev.at))
	b = binary.AppendVarint(b, h.xfer-l.prev.xfer)
	b = binary.AppendVarint(b, int64(h.channel-l.prev.channel))
	b = binary.AppendVarint(b, int64(h.bytes-l.prev.bytes))
	l.prev = h
	l.n++
	return b
}

// addPhase appends p: its head, then end−start unsigned (a phase never
// ends before it starts in a run, and one that does still reads back
// exactly), the chunk and the label as varints, and the phase and channel
// type as a byte each.
func (l *spanLog) addPhase(p *phaseRec) {
	b := l.tail()
	buf := l.appendHead(*b, recHead{p.start, p.xfer, p.channel, p.bytes})
	buf = binary.AppendUvarint(buf, uint64(p.end-p.start))
	buf = binary.AppendVarint(buf, int64(p.chunk))
	buf = binary.AppendUvarint(buf, uint64(p.label))
	*b = append(buf, p.phase, p.chanType)
}

// addEvent appends ev, numbered lbl: its head, then the label as a varint
// and the kind as a byte. Channel and bytes are kept at 32 bits and the
// kind at 8, as checkEvent allows.
func (l *spanLog) addEvent(lbl Label, ev *Event) {
	b := l.tail()
	buf := l.appendHead(*b, recHead{ev.At, ev.Xfer, int32(ev.Channel), int32(ev.Bytes)})
	buf = binary.AppendUvarint(buf, uint64(lbl))
	*b = append(buf, uint8(ev.Kind))
}

// logReader decodes a spanLog's records in order.
type logReader struct {
	chunks [][]byte
	buf    []byte
	prev   recHead
}

func (l *spanLog) reader() logReader { return logReader{chunks: l.chunks} }

// more reports whether a record is left, moving to the next chunk when
// the current one is spent.
func (d *logReader) more() bool {
	for len(d.buf) == 0 {
		if len(d.chunks) == 0 {
			return false
		}
		d.buf, d.chunks = d.chunks[0], d.chunks[1:]
	}
	return true
}

// varints decodes the next len(f) varints of the chunk into f. The log
// holds only what addPhase and addEvent wrote, so the loop skips
// binary.Uvarint's checks for malformed input, and runs about a third
// faster.
func (d *logReader) varints(f []uint64) {
	b := d.buf
	for i := range f {
		var x uint64
		for s := 0; ; s += 7 {
			c := b[0]
			b = b[1:]
			x |= uint64(c&0x7f) << s
			if c < 0x80 {
				break
			}
		}
		f[i] = x
	}
	d.buf = b
}

// unzig undoes binary.AppendVarint's zigzag mapping.
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// head applies a record's first four varints to the previous record's
// head.
func (d *logReader) head(f []uint64) recHead {
	d.prev.at += sim.Time(unzig(f[0]))
	d.prev.xfer += unzig(f[1])
	d.prev.channel += int32(unzig(f[2]))
	d.prev.bytes += int32(unzig(f[3]))
	return d.prev
}

// phase decodes the next record of a phase log.
func (d *logReader) phase() phaseRec {
	var f [7]uint64
	d.varints(f[:])
	h := d.head(f[:4])
	p := phaseRec{
		start: h.at, end: h.at + sim.Time(f[4]), xfer: h.xfer,
		channel: h.channel, bytes: h.bytes, chunk: int32(unzig(f[5])), label: Label(f[6]),
		phase: d.buf[0], chanType: d.buf[1],
	}
	d.buf = d.buf[2:]
	return p
}

// event decodes the next record of an event log, naming its track by t.
func (d *logReader) event(t *labels) Event {
	var f [5]uint64
	d.varints(f[:])
	h := d.head(f[:4])
	ev := Event{
		At: h.at, Kind: Kind(d.buf[0]), Proc: t.name(Label(f[4])),
		Channel: int(h.channel), Bytes: int(h.bytes), Xfer: h.xfer,
	}
	d.buf = d.buf[1:]
	return ev
}
