package cellbe

import (
	"bytes"
	"errors"
	"testing"
)

// TestAllocRejectsBadArguments: both allocators refuse a negative size and
// an alignment Align cannot honour, and a refused request moves nothing.
// Overflow stays an *ErrLSOverflow from the local store.
func TestAllocRejectsBadArguments(t *testing.T) {
	cases := []struct {
		name     string
		n, align int
		overflow bool // the local store must report *ErrLSOverflow
	}{
		{"negative size", -64, 16, false},
		{"negative size default align", -1, 0, false},
		{"align 3", 64, 3, false},
		{"align 48", 64, 48, false},
		{"overflow", 1 << 20, 16, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ls := NewLocalStore(64 << 10)
			if err := ls.LoadImage("rt", 10000); err != nil {
				t.Fatal(err)
			}
			free := ls.Free()
			_, err := ls.Alloc("buf", c.n, c.align)
			var ov *ErrLSOverflow
			if err == nil || errors.As(err, &ov) != c.overflow {
				t.Fatalf("LocalStore.Alloc(%d, %d) = %v, want an error with overflow=%v", c.n, c.align, err, c.overflow)
			}
			if ls.Free() != free {
				t.Fatalf("refused LocalStore.Alloc moved the bump pointer: free %d -> %d", free, ls.Free())
			}

			m := NewMemory(64 << 10)
			if _, err := m.Alloc(10000, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Alloc(c.n, c.align); err == nil {
				t.Fatalf("Memory.Alloc(%d, %d) succeeded", c.n, c.align)
			}
			if m.InUse() != 10000 {
				t.Fatalf("refused Memory.Alloc moved the bump pointer to %d", m.InUse())
			}
		})
	}
	if err := NewLocalStore(1024).LoadImage("rt", -16); err == nil {
		t.Fatal("negative image size loaded")
	}
}

// TestMemoryFirstTouch: a main memory backs its bytes page by page, each
// page on its first write or Segments call, and never moves a page;
// allocator calls, queries, reads, checks and refused accesses back
// nothing.
func TestMemoryFirstTouch(t *testing.T) {
	m := NewMemory(1 << 20)
	a, err := m.Alloc(4096, 128)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1<<20 || m.InUse() != 4096 {
		t.Fatalf("size %d in use %d", m.Size(), m.InUse())
	}
	if _, err := m.Alloc(2<<20, 16); err == nil || err.Error() != "cellbe: main memory exhausted (want 2097152 bytes at 0x1000 of 1048576)" {
		t.Fatalf("overflow error changed: %v", err)
	}
	const outOfRange = "cellbe: main memory access [0xffff0,+17) out of range"
	refused := func(when string) {
		t.Helper()
		errs := []error{m.Check(1<<20-16, 17), m.CopyIn(1<<20-16, make([]byte, 17)), m.CopyOut(1<<20-16, make([]byte, 17))}
		_, err := m.Segments(1<<20-16, 17, nil)
		for _, err := range append(errs, err) {
			if err == nil || err.Error() != outOfRange {
				t.Fatalf("out-of-range error changed %s: %v", when, err)
			}
		}
	}
	refused("untouched")
	zeros := make([]byte, 64)
	if err := m.CopyOut(a, zeros); err != nil || !bytes.Equal(zeros, make([]byte, 64)) {
		t.Fatalf("untouched memory reads %v (%v)", zeros, err)
	}
	if segs, err := m.Segments(a, 0, nil); err != nil || len(segs) != 0 || m.Check(0, 1<<20) != nil {
		t.Fatalf("empty range: %d segments, %v", len(segs), err)
	}
	if m.mem != nil || m.Backed() != 0 {
		t.Fatal("untouched memory holds a page table")
	}

	// A range across a page boundary is two segments, and backs two pages.
	before, err := m.Segments(a+4000, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 || len(before[0]) != 96 || len(before[1]) != 104 || m.Backed() != 2*PageSize {
		t.Fatalf("segments %d, backed %d", len(before), m.Backed())
	}
	copy(before[0], "first touch")
	b, err := m.Alloc(4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Segments(a, int(b-a)+4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 || &before[0][0] != &after[0][4000] || &before[1][0] != &after[1][0] || string(after[0][4000:4011]) != "first touch" {
		t.Fatal("segment taken before a later Segments call does not alias it")
	}
	after[0][4001] = 'X'
	if before[0][1] != 'X' {
		t.Fatal("write through a later segment not visible in an earlier one")
	}

	// Above the allocator mark: zero until written, then keeps the write.
	high := make([]byte, 1<<20-int(m.InUse()))
	if err := m.CopyOut(m.InUse(), high); err != nil {
		t.Fatal(err)
	}
	for i, c := range high {
		if c != 0 {
			t.Fatalf("byte %d above the mark reads %d", i, c)
		}
	}
	if m.Backed() != 2*PageSize {
		t.Fatalf("reading backed pages: %d bytes", m.Backed())
	}
	if err := m.CopyIn(1<<20-1, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	last := make([]byte, 1)
	if err := m.CopyOut(1<<20-1, last); err != nil || last[0] != 0xA5 {
		t.Fatal("byte above the mark lost its write")
	}
	if m.Backed() != 3*PageSize {
		t.Fatalf("backed %d bytes, want 3 pages", m.Backed())
	}
	refused("once backed")
}

// TestLocalStoreFirstTouch: a local store backs its bytes page by page,
// each page on its first write or Segments call, and never moves a page;
// loading, allocating, releasing, occupancy queries and reads back
// nothing.
func TestLocalStoreFirstTouch(t *testing.T) {
	ls := NewLocalStore(256 << 10)
	if err := ls.LoadImage("rt", 10336); err != nil {
		t.Fatal(err)
	}
	a, err := ls.Alloc("buf", 1600, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Alloc("big", 300<<10, 16); err == nil {
		t.Fatal("overflow alloc succeeded")
	} else if want := "cellbe: SPE local store overflow: big needs 307200 bytes, 250208 free of 262144"; err.Error() != want {
		t.Fatalf("overflow error changed: %v", err)
	}
	if err := ls.Release(); err != nil {
		t.Fatal(err)
	}
	a2, err := ls.Alloc("buf", 1600, 16)
	if err != nil || a2 != a {
		t.Fatalf("realloc at %#x (%v), want %#x", a2, err, a)
	}
	if ls.Size() != 256<<10 || ls.Free() != 256<<10-int(a)-1600 || ls.HighWater() != int(a)+1600 || ls.Resident() != 10336 {
		t.Fatalf("size %d free %d high water %d resident %d", ls.Size(), ls.Free(), ls.HighWater(), ls.Resident())
	}
	const outOfRange = "cellbe: LS access [0x3fff0,+17) out of range (size 262144)"
	refused := func(when string) {
		t.Helper()
		_, err := ls.Segments(256<<10-16, 17, nil)
		for _, err := range []error{err, ls.CopyIn(256<<10-16, make([]byte, 17)), ls.CopyOut(256<<10-16, make([]byte, 17))} {
			if err == nil || err.Error() != outOfRange {
				t.Fatalf("out-of-range error changed %s: %v", when, err)
			}
		}
	}
	refused("untouched")
	if err := ls.CopyOut(a, make([]byte, 1600)); err != nil {
		t.Fatal(err)
	}
	if ls.mem != nil || ls.Backed() != 0 {
		t.Fatal("untouched local store holds a page table")
	}

	// The 1600-byte buffer at 0x2860 lies in page 2 alone.
	before, err := ls.Segments(a, 1600, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || len(before[0]) != 1600 || ls.Backed() != PageSize {
		t.Fatalf("%d segments, backed %d", len(before), ls.Backed())
	}
	copy(before[0], "staged")
	b, err := ls.Alloc("second", 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ls.Segments(0, int(b)+256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 || &before[0][0] != &after[2][a-2*PageSize] || string(after[2][a-2*PageSize:][:6]) != "staged" {
		t.Fatal("segment taken before a later Segments call does not alias it")
	}

	// Above the allocator mark: zero until written, then keeps the write.
	top := uint32(ls.Size() - ls.Free())
	high := make([]byte, ls.Free())
	if err := ls.CopyOut(top, high); err != nil {
		t.Fatal(err)
	}
	for i, c := range high {
		if c != 0 {
			t.Fatalf("byte %d above the mark reads %d", i, c)
		}
	}
	if err := ls.CopyIn(top, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	again := make([]byte, 1)
	if err := ls.CopyOut(top, again); err != nil || again[0] != 0x5A {
		t.Fatal("byte above the mark lost its write")
	}
	if ls.Backed() != 4*PageSize {
		t.Fatalf("backed %d bytes, want 4 pages", ls.Backed())
	}
	refused("once backed")
}
