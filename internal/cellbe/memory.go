package cellbe

import "fmt"

// Memory is a node's main memory: a flat byte array with a bump allocator.
// Addresses handed out are effective addresses within the node's EA space
// (main memory occupies [0, Size)). It is backed on the host page by page
// (see PageSize), each page on its first touch, so a memory nothing writes
// costs no host memory, and a page never moves, so no segment goes stale.
type Memory struct {
	size int
	mem  pages
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

// Check returns the error an access to [addr, addr+n) would meet, if any,
// without backing a page.
func (m *Memory) Check(addr int64, n int) error {
	if addr < 0 || n < 0 || addr > int64(m.size)-int64(n) {
		return fmt.Errorf("cellbe: main memory access [%#x,+%d) out of range", addr, n)
	}
	return nil
}

// Segments appends to dst mutable views of the pages that cover
// [addr, addr+n), in address order, backing any page not yet touched. A
// zero-length range appends nothing.
func (m *Memory) Segments(addr int64, n int, dst [][]byte) ([][]byte, error) {
	if err := m.Check(addr, n); err != nil {
		return dst, err
	}
	return m.mem.segments(m.size, int(addr), n, dst), nil
}

// CopyIn writes src to main memory starting at addr.
func (m *Memory) CopyIn(addr int64, src []byte) error {
	if err := m.Check(addr, len(src)); err != nil {
		return err
	}
	m.mem.copyIn(m.size, int(addr), src)
	return nil
}

// CopyOut reads main memory starting at addr into dst. It backs no page:
// bytes never written read as zero.
func (m *Memory) CopyOut(addr int64, dst []byte) error {
	if err := m.Check(addr, len(dst)); err != nil {
		return err
	}
	m.mem.copyOut(int(addr), dst)
	return nil
}

// Backed reports how many bytes of host memory back the memory: PageSize
// for each page touched so far.
func (m *Memory) Backed() int { return m.mem.backed() }

// InUse reports the high-water mark of the allocator.
func (m *Memory) InUse() int64 { return m.brk }
