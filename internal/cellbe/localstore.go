package cellbe

import "fmt"

// LocalStore is one SPE's private 256 KB memory. Its layout mirrors a real
// SPE program image: a resident region (library runtime + program code +
// stack reserve) claimed once at load time, with the remainder available to
// a stack-disciplined buffer allocator for message staging. Exceeding the
// store is the paper's central resource constraint and is reported as an
// explicit error, never a silent wrap. Like Memory, the store is backed
// on the host page by page (see PageSize), each page on its first touch,
// so an SPE that never moves data costs no host memory.
type LocalStore struct {
	size      int
	mem       pages
	resident  int // bytes claimed by runtime/code/stack, at the bottom
	top       int // bump pointer for buffer allocations
	highWater int // largest top ever reached (for utilization reports)
	allocs    []int
}

// ErrLSOverflow is returned (wrapped) when an allocation or load exceeds
// the local store.
type ErrLSOverflow struct {
	Want, Free, Size int
	What             string
}

// Error implements error.
func (e *ErrLSOverflow) Error() string {
	return fmt.Sprintf("cellbe: SPE local store overflow: %s needs %d bytes, %d free of %d",
		e.What, e.Want, e.Free, e.Size)
}

// NewLocalStore creates a local store of size bytes.
func NewLocalStore(size int) *LocalStore {
	return &LocalStore{size: size}
}

// Size reports the store's capacity.
func (ls *LocalStore) Size() int { return ls.size }

// Free reports bytes available to the buffer allocator.
func (ls *LocalStore) Free() int { return ls.size - ls.top }

// Resident reports bytes claimed by LoadImage.
func (ls *LocalStore) Resident() int { return ls.resident }

// LoadImage claims n resident bytes at the bottom of the store (runtime
// library, program text/data, stack reserve). It resets any existing image
// and all buffer allocations, as loading a new SPE program does.
func (ls *LocalStore) LoadImage(what string, n int) error {
	if n < 0 {
		return fmt.Errorf("cellbe: %s: negative image size %d", what, n)
	}
	if n > ls.size {
		return &ErrLSOverflow{Want: n, Free: ls.size, Size: ls.size, What: what}
	}
	ls.resident = n
	ls.top = Align(n, 16)
	ls.allocs = ls.allocs[:0]
	return nil
}

// Alloc reserves n bytes aligned to align (a power of two; 0 means 16)
// from the buffer region and returns the LS address. Allocations are
// released in LIFO order.
func (ls *LocalStore) Alloc(what string, n, align int) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("cellbe: %s: negative allocation %d", what, n)
	}
	if align <= 0 {
		align = 16 // quad-word: the Cell's preferred DMA alignment
	}
	if !validAlign(align) {
		return 0, fmt.Errorf("cellbe: %s: alignment %d is not a power of two", what, align)
	}
	base := Align(ls.top, align)
	if n > ls.size-base {
		return 0, &ErrLSOverflow{Want: n, Free: ls.Free(), Size: ls.size, What: what}
	}
	ls.allocs = append(ls.allocs, ls.top)
	ls.top = base + n
	if ls.top > ls.highWater {
		ls.highWater = ls.top
	}
	return uint32(base), nil
}

// HighWater reports the deepest local-store occupancy ever reached
// (resident image plus the largest live buffer stack).
func (ls *LocalStore) HighWater() int {
	if ls.highWater < ls.resident {
		return ls.resident
	}
	return ls.highWater
}

// Release frees the most recent allocation (LIFO discipline, matching the
// stub's stack usage). An unmatched Release is a stub bug; it is reported
// as an error so the protocol layers can route it through the
// application's abort path with a proper diagnostic instead of crashing
// the host process.
func (ls *LocalStore) Release() error {
	if len(ls.allocs) == 0 {
		return fmt.Errorf("cellbe: LocalStore.Release without matching Alloc")
	}
	ls.top = ls.allocs[len(ls.allocs)-1]
	ls.allocs = ls.allocs[:len(ls.allocs)-1]
	return nil
}

// check returns the error an access to LS bytes [addr, addr+n) meets, if
// any.
func (ls *LocalStore) check(addr uint32, n int) error {
	if n < 0 || int(addr) > ls.size-n {
		return fmt.Errorf("cellbe: LS access [%#x,+%d) out of range (size %d)", addr, n, ls.size)
	}
	return nil
}

// Segments appends to dst mutable views of the pages that cover LS bytes
// [addr, addr+n), in address order, backing any page not yet touched. A
// zero-length range appends nothing.
func (ls *LocalStore) Segments(addr uint32, n int, dst [][]byte) ([][]byte, error) {
	if err := ls.check(addr, n); err != nil {
		return dst, err
	}
	return ls.mem.segments(ls.size, int(addr), n, dst), nil
}

// CopyIn writes src to LS bytes starting at addr.
func (ls *LocalStore) CopyIn(addr uint32, src []byte) error {
	if err := ls.check(addr, len(src)); err != nil {
		return err
	}
	ls.mem.copyIn(ls.size, int(addr), src)
	return nil
}

// CopyOut reads LS bytes starting at addr into dst. It backs no page:
// bytes never written read as zero.
func (ls *LocalStore) CopyOut(addr uint32, dst []byte) error {
	if err := ls.check(addr, len(dst)); err != nil {
		return err
	}
	ls.mem.copyOut(int(addr), dst)
	return nil
}

// Backed reports how many bytes of host memory back the store: PageSize
// for each page touched so far.
func (ls *LocalStore) Backed() int { return ls.mem.backed() }
