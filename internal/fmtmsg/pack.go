package fmtmsg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Pack encodes args per the spec into the canonical big-endian wire
// format. For each item: a '*' conversion first consumes an int count
// argument, then the data argument; count-1 items accept a scalar or a
// slice; count-n items require a slice with at least n elements.
func (s *Spec) Pack(args ...any) ([]byte, error) {
	return s.PackInto(nil, args...)
}

// Unpack decodes wire data into args: pointers to scalars for count-1
// items, or slices with capacity for the item count. '*' conversions
// consume an int count argument first, like the paper's
// PI_Read(ch, "%*d", 100, array).
func (s *Spec) Unpack(data []byte, args ...any) error {
	total, err := s.WireSize(args...)
	if err != nil {
		return err
	}
	if len(data) != total {
		return fmt.Errorf("fmtmsg: %q: wire payload is %d bytes, format describes %d", s.Format, len(data), total)
	}
	return s.readAll(data, args)
}

// WireSize reports the payload size the given call-time arguments produce;
// it resolves '*' counts. It checks args against the items — each '*'
// count, then one data argument per item, and nothing left over — and
// allocates only for an error. Pack and Unpack run it first, so argument
// errors take precedence over element errors.
func (s *Spec) WireSize(args ...any) (int, error) {
	ai, total := 0, 0
	for _, it := range s.Items {
		count, _, next, err := s.itemArgs(it, args, ai)
		if err != nil {
			return 0, err
		}
		total += count * it.Type.Size()
		ai = next
	}
	if ai != len(args) {
		return 0, fmt.Errorf("fmtmsg: %q: %d excess argument(s)", s.Format, len(args)-ai)
	}
	return total, nil
}

// itemArgs resolves one item's element count and data argument from the
// arguments starting at args[ai], and returns the index after them.
func (s *Spec) itemArgs(it Item, args []any, ai int) (count int, arg any, next int, err error) {
	count = it.Count
	if it.Star {
		if ai >= len(args) {
			return 0, nil, ai, s.tooFew(args)
		}
		switch v := args[ai].(type) {
		case int:
			count = v
		case int32:
			count = int(v)
		case int64:
			count = int(v)
		default:
			return 0, nil, ai, fmt.Errorf("fmtmsg: %q: '*' count must be an int, got %T", s.Format, args[ai])
		}
		if count <= 0 {
			return 0, nil, ai, fmt.Errorf("fmtmsg: %q: '*' count %d must be positive", s.Format, count)
		}
		ai++
	}
	if ai >= len(args) {
		return 0, nil, ai, s.tooFew(args)
	}
	return count, args[ai], ai + 1, nil
}

func (s *Spec) tooFew(args []any) error {
	return fmt.Errorf("fmtmsg: %q: not enough arguments (%d supplied)", s.Format, len(args))
}

// readAll decodes every item from the front of data, which holds at least
// the size WireSize reported for args.
func (s *Spec) readAll(data []byte, args []any) error {
	off, ai := 0, 0
	for _, it := range s.Items {
		count, arg, next, _ := s.itemArgs(it, args, ai) // checked by WireSize
		n := count * it.Type.Size()
		if err := readElems(data[off:off+n], it.Type, count, arg, s.Format); err != nil {
			return err
		}
		off += n
		ai = next
	}
	return nil
}

func argErr(format string, typ ElemType, arg any, unpack bool) error {
	dir := "write"
	if unpack {
		dir = "read"
	}
	return fmt.Errorf("fmtmsg: %q: cannot %s %s from argument of type %T", format, dir, typ, arg)
}

func shortErr(format string, typ ElemType, want, have int) error {
	return fmt.Errorf("fmtmsg: %q: %s needs %d elements but the slice holds %d", format, typ, want, have)
}

// appendElems encodes count elements of typ from arg.
func appendElems(buf []byte, typ ElemType, count int, arg any, format string) ([]byte, error) {
	switch typ {
	case Byte, Char:
		switch v := arg.(type) {
		case byte:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return append(buf, v), nil
		case []byte:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			return append(buf, v[:count]...), nil
		}
	case Int16:
		switch v := arg.(type) {
		case int16:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint16(buf, uint16(v)), nil
		case []int16:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint16(buf, uint16(x))
			}
			return buf, nil
		}
	case Int32:
		switch v := arg.(type) {
		case int32:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint32(buf, uint32(v)), nil
		case int:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			if int64(v) > math.MaxInt32 || int64(v) < math.MinInt32 {
				return nil, fmt.Errorf("fmtmsg: %q: %d overflows %%d (32-bit)", format, v)
			}
			return binary.BigEndian.AppendUint32(buf, uint32(int32(v))), nil
		case []int32:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint32(buf, uint32(x))
			}
			return buf, nil
		}
	case Int64:
		switch v := arg.(type) {
		case int64:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint64(buf, uint64(v)), nil
		case int:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint64(buf, uint64(int64(v))), nil
		case []int64:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint64(buf, uint64(x))
			}
			return buf, nil
		}
	case Uint32:
		switch v := arg.(type) {
		case uint32:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint32(buf, v), nil
		case []uint32:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint32(buf, x)
			}
			return buf, nil
		}
	case Uint64:
		switch v := arg.(type) {
		case uint64:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint64(buf, v), nil
		case []uint64:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint64(buf, x)
			}
			return buf, nil
		}
	case Float32:
		switch v := arg.(type) {
		case float32:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint32(buf, math.Float32bits(v)), nil
		case []float32:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(x))
			}
			return buf, nil
		}
	case Float64:
		switch v := arg.(type) {
		case float64:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			return binary.BigEndian.AppendUint64(buf, math.Float64bits(v)), nil
		case []float64:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
			}
			return buf, nil
		}
	case LongDouble:
		switch v := arg.(type) {
		case LongDoubleVal:
			if count != 1 {
				return nil, shortErr(format, typ, count, 1)
			}
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Hi))
			return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Lo)), nil
		case []LongDoubleVal:
			if len(v) < count {
				return nil, shortErr(format, typ, count, len(v))
			}
			for _, x := range v[:count] {
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.Hi))
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.Lo))
			}
			return buf, nil
		}
	}
	return nil, argErr(format, typ, arg, false)
}

// readElems decodes count elements of typ from data into arg.
func readElems(data []byte, typ ElemType, count int, arg any, format string) error {
	switch typ {
	case Byte, Char:
		switch v := arg.(type) {
		case *byte:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = data[0]
			return nil
		case []byte:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			copy(v, data[:count])
			return nil
		}
	case Int16:
		switch v := arg.(type) {
		case *int16:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = int16(binary.BigEndian.Uint16(data))
			return nil
		case []int16:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = int16(binary.BigEndian.Uint16(data[i*2:]))
			}
			return nil
		}
	case Int32:
		switch v := arg.(type) {
		case *int32:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = int32(binary.BigEndian.Uint32(data))
			return nil
		case *int:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = int(int32(binary.BigEndian.Uint32(data)))
			return nil
		case []int32:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = int32(binary.BigEndian.Uint32(data[i*4:]))
			}
			return nil
		}
	case Int64:
		switch v := arg.(type) {
		case *int64:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = int64(binary.BigEndian.Uint64(data))
			return nil
		case []int64:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = int64(binary.BigEndian.Uint64(data[i*8:]))
			}
			return nil
		}
	case Uint32:
		switch v := arg.(type) {
		case *uint32:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = binary.BigEndian.Uint32(data)
			return nil
		case []uint32:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = binary.BigEndian.Uint32(data[i*4:])
			}
			return nil
		}
	case Uint64:
		switch v := arg.(type) {
		case *uint64:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = binary.BigEndian.Uint64(data)
			return nil
		case []uint64:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = binary.BigEndian.Uint64(data[i*8:])
			}
			return nil
		}
	case Float32:
		switch v := arg.(type) {
		case *float32:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = math.Float32frombits(binary.BigEndian.Uint32(data))
			return nil
		case []float32:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = math.Float32frombits(binary.BigEndian.Uint32(data[i*4:]))
			}
			return nil
		}
	case Float64:
		switch v := arg.(type) {
		case *float64:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			*v = math.Float64frombits(binary.BigEndian.Uint64(data))
			return nil
		case []float64:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
			}
			return nil
		}
	case LongDouble:
		switch v := arg.(type) {
		case *LongDoubleVal:
			if count != 1 {
				return shortErr(format, typ, count, 1)
			}
			v.Hi = math.Float64frombits(binary.BigEndian.Uint64(data))
			v.Lo = math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
			return nil
		case []LongDoubleVal:
			if len(v) < count {
				return shortErr(format, typ, count, len(v))
			}
			for i := 0; i < count; i++ {
				v[i].Hi = math.Float64frombits(binary.BigEndian.Uint64(data[i*16:]))
				v[i].Lo = math.Float64frombits(binary.BigEndian.Uint64(data[i*16+8:]))
			}
			return nil
		}
	}
	return argErr(format, typ, arg, true)
}
