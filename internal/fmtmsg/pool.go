package fmtmsg

import (
	"fmt"
	"sync"
)

// wirePool recycles wire buffers across Pack/Unpack call sites. The
// endpoints pack into a pooled buffer, hand it to the transport (which
// snapshots or copies it before returning), and put it back — so steady
// traffic stops allocating per message.
var wirePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetWireBuf returns a zero-length pooled buffer with at least the given
// capacity. Pair with PutWireBuf once the transport no longer references
// the bytes.
func GetWireBuf(capacity int) *[]byte {
	bp := wirePool.Get().(*[]byte)
	if cap(*bp) < capacity {
		*bp = make([]byte, 0, capacity)
	}
	*bp = (*bp)[:0]
	return bp
}

// PutWireBuf recycles a buffer obtained from GetWireBuf.
func PutWireBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	wirePool.Put(bp)
}

// PackInto encodes args like Pack but appends to buf, reallocating only
// when buf lacks capacity; it returns the extended slice. With a pooled
// buffer sized by WireSize this makes steady-state packing allocation-free.
func (s *Spec) PackInto(buf []byte, args ...any) ([]byte, error) {
	total, err := s.WireSize(args...)
	if err != nil {
		return nil, err
	}
	if cap(buf)-len(buf) < total {
		nb := make([]byte, len(buf), len(buf)+total)
		copy(nb, buf)
		buf = nb
	}
	ai := 0
	for _, it := range s.Items {
		count, arg, next, _ := s.itemArgs(it, args, ai) // checked by WireSize
		buf, err = appendElems(buf, it.Type, count, arg, s.Format)
		if err != nil {
			return nil, err
		}
		ai = next
	}
	return buf, nil
}

// UnpackFrom decodes one message from the front of data (e.g. out of a
// larger reassembly buffer) and returns the number of bytes consumed.
// Unlike Unpack it tolerates trailing bytes.
func (s *Spec) UnpackFrom(data []byte, args ...any) (int, error) {
	total, err := s.WireSize(args...)
	if err != nil {
		return 0, err
	}
	if len(data) < total {
		return 0, fmt.Errorf("fmtmsg: %q: wire payload is %d bytes, format describes %d", s.Format, len(data), total)
	}
	if err := s.readAll(data, args); err != nil {
		return 0, err
	}
	return total, nil
}
