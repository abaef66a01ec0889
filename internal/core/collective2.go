package core

import (
	"fmt"
	"math"

	"cellpilot/internal/deadlock"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/trace"
)

// This file implements the bundle operations Pilot gained after V1.2
// (the version the paper describes): PI_Scatter and PI_Reduce. They keep
// the MPMD convention — only the common endpoint calls the collective;
// the other ends use plain Read/Write — and, with Options.SPECollectives,
// they work over SPE member channels like the V1.2 operations.

// Scatter and reduce bundle kinds (post-V1.2 Pilot).
const (
	// BundleScatter: the common endpoint writes a distinct chunk to each
	// channel; each reader receives its own slice.
	BundleScatter BundleKind = iota + 100
	// BundleReduce: every writer contributes; the common endpoint combines
	// the contributions elementwise with a reduction operator.
	BundleReduce
)

// ReduceOp is a predefined elementwise reduction operator.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

// String implements fmt.Stringer.
func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Scatter writes chunk i of data to channel i of a scatter bundle
// (PI_Scatter). format describes one reader's chunk — a single
// fixed-count item (e.g. "%16d") — and data must hold count × channels
// elements in channel order. Each reader calls Read with the same format.
func (c *Ctx) Scatter(b *Bundle, format string, data any) {
	loc := callerLoc(1)
	if b == nil || b.kind != BundleScatter {
		c.fail(loc, "PI_Scatter", "bundle was not created for scatter")
	}
	if b.common != c.Self {
		c.fail(loc, "PI_Scatter", "%s is not the bundle's writer", c.Self)
	}
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.fail(loc, "PI_Scatter", "%v", err)
	}
	if len(spec.Items) != 1 || spec.Items[0].Star {
		c.fail(loc, "PI_Scatter", "scatter format must be a single fixed-count item, got %q", format)
	}
	item := spec.Items[0]
	total := item.Count * len(b.chans)
	synth := fmtmsg.MustParse(fmt.Sprintf("%%%d%s", total, item.Type.Verb()))
	wire, err := synth.Pack(data)
	if err != nil {
		c.fail(loc, "PI_Scatter", "%v", err)
	}
	c.P.Advance(c.app.par.PilotOverhead + c.app.par.PackTime(len(wire)))
	per := item.Count * item.Type.Size()
	hdr := putHeader(spec.Signature(), per)
	for i, ch := range b.chans {
		if ch.fault != nil {
			c.app.failOp(loc, "PI_Scatter", c.Self, ch, ch.fault, false, false)
		}
		xfer := c.app.newXfer()
		sendStart := c.P.Now()
		c.rank.TagNextXfer(xfer)
		if err := c.sendOn(ch, c.peerRank(ch.To), ch.tag(), c.app.opDeadline(sendStart, 0), hdr, wire[i*per:(i+1)*per]); err != nil {
			c.app.failOp(loc, "PI_Scatter", c.Self, ch, err, false, false)
		}
		c.app.reportSent(ch)
		c.app.spanPhase(xfer, trace.PhaseMPISend, c.Self.lbl, ch, per, sendStart, c.P.Now())
		c.Self.blocked[blockWrite] += c.P.Now() - sendStart
		c.app.record(c.P, trace.KindWrite, c.Self, ch, per, xfer, c.P.Now()-sendStart)
	}
}

// Reduce collects one contribution per channel of a reduce bundle and
// combines them elementwise with op into out (PI_Reduce). format is a
// single fixed-count item; out must be a slice of the matching element
// type with room for that count. Writers each call Write with the same
// format. Long-double contributions are not reducible (as in C Pilot).
func (c *Ctx) Reduce(b *Bundle, format string, op ReduceOp, out any) {
	loc := callerLoc(1)
	if b == nil || b.kind != BundleReduce {
		c.fail(loc, "PI_Reduce", "bundle was not created for reduce")
	}
	if b.common != c.Self {
		c.fail(loc, "PI_Reduce", "%s is not the bundle's reader", c.Self)
	}
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.fail(loc, "PI_Reduce", "%v", err)
	}
	if len(spec.Items) != 1 || spec.Items[0].Star {
		c.fail(loc, "PI_Reduce", "reduce format must be a single fixed-count item, got %q", format)
	}
	item := spec.Items[0]
	if item.Type == fmtmsg.LongDouble {
		c.fail(loc, "PI_Reduce", "%%Lf contributions cannot be reduced")
	}
	per := item.Count * item.Type.Size()
	var acc []byte
	for i, ch := range b.chans {
		if ch.fault != nil {
			c.app.failOp(loc, "PI_Reduce", c.Self, ch, ch.fault, false, false)
		}
		waitStart := c.P.Now()
		c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
		data, st, err := c.recvOn(ch, c.peerRank(ch.From), ch.tag(), c.app.opDeadline(waitStart, 0))
		if err != nil {
			c.app.failOp(loc, "PI_Reduce", c.Self, ch, err, false, true)
		}
		c.app.reportUnblock(c.Self)
		if len(data) < hdrSize {
			c.fail(loc, "PI_Reduce", "malformed message on %s", ch)
		}
		sig, size := parseHeader(data)
		if sig != spec.Signature() || size != per {
			c.fail(loc, "PI_Reduce", "writer on %s sent %d bytes with a different format; expected %q (%d bytes)",
				ch, size, format, per)
		}
		c.app.spanPhase(st.Xfer, trace.PhaseMPIWait, c.Self.lbl, ch, size, waitStart, c.P.Now())
		c.Self.blocked[blockRead] += c.P.Now() - waitStart
		c.app.record(c.P, trace.KindRead, c.Self, ch, size, st.Xfer, c.P.Now()-waitStart)
		if i == 0 {
			acc = append([]byte(nil), data[hdrSize:]...)
			continue
		}
		combineWire(acc, data[hdrSize:], item.Type, op)
	}
	c.P.Advance(c.app.par.PilotOverhead + c.app.par.PackTime(per*len(b.chans)))
	synth := fmtmsg.MustParse(fmt.Sprintf("%%%d%s", item.Count, item.Type.Verb()))
	if err := synth.Unpack(acc, out); err != nil {
		c.fail(loc, "PI_Reduce", "%v", err)
	}
}

// combineWire folds in into acc elementwise, both in canonical wire form.
func combineWire(acc, in []byte, typ fmtmsg.ElemType, op ReduceOp) {
	sz := typ.Size()
	for off := 0; off+sz <= len(acc); off += sz {
		a := acc[off : off+sz]
		b := in[off : off+sz]
		switch typ {
		case fmtmsg.Byte, fmtmsg.Char:
			a[0] = byte(combineInt(int64(a[0]), int64(b[0]), op))
		case fmtmsg.Int16:
			putInt(a, combineInt(int64(int16(getUint(a))), int64(int16(getUint(b))), op))
		case fmtmsg.Int32:
			putInt(a, combineInt(int64(int32(getUint(a))), int64(int32(getUint(b))), op))
		case fmtmsg.Int64:
			putInt(a, combineInt(int64(getUint(a)), int64(getUint(b)), op))
		case fmtmsg.Uint32, fmtmsg.Uint64:
			putUint(a, combineUint(getUint(a), getUint(b), op))
		case fmtmsg.Float32:
			f := combineFloat(float64(math.Float32frombits(uint32(getUint(a)))),
				float64(math.Float32frombits(uint32(getUint(b)))), op)
			putUint(a, uint64(math.Float32bits(float32(f))))
		case fmtmsg.Float64:
			f := combineFloat(math.Float64frombits(getUint(a)), math.Float64frombits(getUint(b)), op)
			putUint(a, math.Float64bits(f))
		}
	}
}

func getUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func putUint(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func putInt(b []byte, v int64) { putUint(b, uint64(v)) }

func combineInt(a, b int64, op ReduceOp) int64 {
	switch op {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

func combineUint(a, b uint64, op ReduceOp) uint64 {
	switch op {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

func combineFloat(a, b float64, op ReduceOp) float64 {
	switch op {
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	default:
		return a + b
	}
}
