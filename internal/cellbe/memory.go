package cellbe

import "fmt"

// Memory is a node's main memory: a flat byte array with a bump allocator.
// Addresses handed out are effective addresses within the node's EA space
// (main memory occupies [0, Size)). The array is allocated whole on the
// first Window call and never moves afterwards, so a memory nothing reads
// or writes costs no host memory and no window ever goes stale.
type Memory struct {
	size int
	data []byte // nil until the first Window
	brk  int64
}

// NewMemory creates a main memory of the given size.
func NewMemory(size int) *Memory {
	return &Memory{size: size}
}

// Size reports total capacity in bytes.
func (m *Memory) Size() int { return m.size }

// Alloc reserves n bytes aligned to align (a power of two; 0 means 1) and
// returns the base address.
func (m *Memory) Alloc(n, align int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("cellbe: negative allocation %d", n)
	}
	if align <= 0 {
		align = 1
	}
	if !validAlign(align) {
		return 0, fmt.Errorf("cellbe: alignment %d is not a power of two", align)
	}
	base := int64(Align(int(m.brk), align))
	if int64(n) > int64(m.size)-base {
		return 0, fmt.Errorf("cellbe: main memory exhausted (want %d bytes at %#x of %d)", n, base, m.size)
	}
	m.brk = base + int64(n)
	return base, nil
}

// Window returns a mutable view of [addr, addr+n).
func (m *Memory) Window(addr int64, n int) ([]byte, error) {
	if addr < 0 || n < 0 || addr+int64(n) > int64(m.size) {
		return nil, fmt.Errorf("cellbe: main memory access [%#x,+%d) out of range", addr, n)
	}
	if m.data == nil {
		m.data = make([]byte, m.size)
	}
	return m.data[addr : addr+int64(n) : addr+int64(n)], nil
}

// InUse reports the high-water mark of the allocator.
func (m *Memory) InUse() int64 { return m.brk }
