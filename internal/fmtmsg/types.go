// Package fmtmsg implements Pilot's stdio-inspired message format strings:
// parsing specs like "%d", "%100Lf" or "%*f", packing Go values to the
// canonical big-endian wire format, and unpacking on the receiving side.
// The format does not imply text conversion (exactly as the paper notes) —
// it describes binary element type and count, and provides the signature
// Pilot uses to catch writer/reader mismatches at run time.
package fmtmsg

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// ElemType enumerates the element types Pilot formats describe.
type ElemType int

// Element types, with their C conversion spellings.
const (
	Byte       ElemType = iota // %b — raw byte
	Char                       // %c — char
	Int16                      // %hd — short
	Int32                      // %d — int
	Int64                      // %ld — long long
	Uint32                     // %u — unsigned
	Uint64                     // %lu — unsigned long long
	Float32                    // %f — float
	Float64                    // %lf — double
	LongDouble                 // %Lf — PPC long double (double-double, 16 bytes)
)

// LongDoubleVal is the 16-byte IBM "double-double" long double of the PPC
// ABI, which the paper's 1600-byte benchmark payload (100 long doubles) is
// made of. Value = Hi + Lo.
type LongDoubleVal struct {
	Hi, Lo float64
}

// Size reports the wire size of one element in bytes.
func (e ElemType) Size() int {
	switch e {
	case Byte, Char:
		return 1
	case Int16:
		return 2
	case Int32, Uint32, Float32:
		return 4
	case Int64, Uint64, Float64:
		return 8
	case LongDouble:
		return 16
	default:
		panic(fmt.Sprintf("fmtmsg: unknown element type %d", int(e)))
	}
}

// Verb reports the C conversion spelling for the element type.
func (e ElemType) Verb() string {
	switch e {
	case Byte:
		return "b"
	case Char:
		return "c"
	case Int16:
		return "hd"
	case Int32:
		return "d"
	case Int64:
		return "ld"
	case Uint32:
		return "u"
	case Uint64:
		return "lu"
	case Float32:
		return "f"
	case Float64:
		return "lf"
	case LongDouble:
		return "Lf"
	default:
		return "?"
	}
}

// String implements fmt.Stringer.
func (e ElemType) String() string { return "%" + e.Verb() }

// Item is one conversion in a format: a count (fixed, or supplied at call
// time with '*') and an element type.
type Item struct {
	// Count is the fixed element count; 1 for a bare verb. Ignored when
	// Star is set.
	Count int
	// Star marks a '%*' conversion whose count is an extra argument.
	Star bool
	// Type is the element type.
	Type ElemType
}

// Spec is a parsed format string. Obtain one from Parse or MustParse,
// which also compute its signature.
type Spec struct {
	// Format is the original string, for diagnostics.
	Format string
	// Items are the conversions in order.
	Items []Item
	sig   uint32
}

// Signature is a compact writer/reader compatibility code: same element
// sequence (types, star-ness) on both ends or the transfer is rejected.
// Fixed counts are included — reading fewer elements than were written is
// the classic MPI bug Pilot exists to catch — except that a '*' end
// matches any count of the same type (the paper's "%*d" example reads an
// array written as "%100d"). Parse computes it once, so every channel
// operation reads a stored value.
func (s *Spec) Signature() uint32 { return s.sig }

// signature hashes the items' element types for Signature.
func signature(items []Item) uint32 {
	h := fnv.New32a()
	for _, it := range items {
		fmt.Fprintf(h, "|%s", it.Type.Verb())
	}
	return h.Sum32()
}

// MinWireSize reports the payload size in bytes for the fixed-count items
// (star items contribute zero; use WireSize with resolved counts).
func (s *Spec) MinWireSize() int {
	n := 0
	for _, it := range s.Items {
		if !it.Star {
			n += it.Count * it.Type.Size()
		}
	}
	return n
}

// String implements fmt.Stringer.
func (s *Spec) String() string {
	var b strings.Builder
	for i, it := range s.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('%')
		switch {
		case it.Star:
			b.WriteByte('*')
		case it.Count != 1:
			fmt.Fprintf(&b, "%d", it.Count)
		}
		b.WriteString(it.Type.Verb())
	}
	return b.String()
}
