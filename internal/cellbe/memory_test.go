package cellbe

import (
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

// TestMemoryFirstTouch: a main memory allocates its bytes on the first
// Window call and never moves them; allocator calls, queries and refused
// windows allocate nothing.
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
	if _, err := m.Window(1<<20-16, 17); err == nil || err.Error() != outOfRange {
		t.Fatalf("out-of-range error changed: %v", err)
	}
	if m.data != nil {
		t.Fatal("untouched memory holds backing")
	}

	before, err := m.Window(a, 4096)
	if err != nil {
		t.Fatal(err)
	}
	copy(before, "first touch")
	b, err := m.Alloc(4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Window(a, int(b-a)+4096)
	if err != nil {
		t.Fatal(err)
	}
	if &before[0] != &after[0] || string(after[:11]) != "first touch" {
		t.Fatal("window taken before a later Window does not alias it")
	}
	after[1] = 'X'
	if before[1] != 'X' {
		t.Fatal("write through a later window not visible in an earlier one")
	}

	// Above the allocator mark: zero until written, then keeps the write.
	high, err := m.Window(m.InUse(), 1<<20-int(m.InUse()))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range high {
		if c != 0 {
			t.Fatalf("byte %d above the mark reads %d", i, c)
		}
	}
	high[len(high)-1] = 0xA5
	last, _ := m.Window(1<<20-1, 1)
	if last[0] != 0xA5 {
		t.Fatal("byte above the mark lost its write")
	}
	if _, err := m.Window(1<<20-16, 17); err == nil || err.Error() != outOfRange {
		t.Fatalf("out-of-range error changed once backed: %v", err)
	}
}

// TestLocalStoreFirstTouch: a local store allocates its bytes on the first
// Window call and never moves them; loading, allocating, releasing and
// occupancy queries allocate nothing.
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
	if _, err := ls.Window(256<<10-16, 17); err == nil || err.Error() != outOfRange {
		t.Fatalf("out-of-range error changed: %v", err)
	}
	if ls.data != nil {
		t.Fatal("untouched local store holds backing")
	}

	before, err := ls.Window(a, 1600)
	if err != nil {
		t.Fatal(err)
	}
	copy(before, "staged")
	b, err := ls.Alloc("second", 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ls.Window(0, int(b)+256)
	if err != nil {
		t.Fatal(err)
	}
	if &before[0] != &after[a] || string(after[a:a+6]) != "staged" {
		t.Fatal("window taken before a later Window does not alias it")
	}

	// Above the allocator mark: zero until written, then keeps the write.
	top := uint32(ls.Size() - ls.Free())
	high, err := ls.Window(top, ls.Free())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range high {
		if c != 0 {
			t.Fatalf("byte %d above the mark reads %d", i, c)
		}
	}
	high[0] = 0x5A
	again, _ := ls.Window(top, 1)
	if again[0] != 0x5A {
		t.Fatal("byte above the mark lost its write")
	}
	if _, err := ls.Window(256<<10-16, 17); err == nil || err.Error() != outOfRange {
		t.Fatalf("out-of-range error changed once backed: %v", err)
	}
}
