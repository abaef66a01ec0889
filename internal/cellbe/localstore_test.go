package cellbe

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestLocalStoreImageAndAlloc(t *testing.T) {
	ls := NewLocalStore(256 * 1024)
	if err := ls.LoadImage("runtime+code", 10336+24*1024+4*1024); err != nil {
		t.Fatal(err)
	}
	if ls.Resident() != 10336+24*1024+4*1024 {
		t.Fatalf("resident = %d", ls.Resident())
	}
	addr, err := ls.Alloc("buf", 1600, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !IsAligned(int64(addr), 16) {
		t.Fatalf("alloc not quad-word aligned: %#x", addr)
	}
	w := make([]byte, 1600)
	for i := range w {
		w[i] = byte(i)
	}
	if err := ls.CopyIn(addr, w); err != nil {
		t.Fatal(err)
	}
	w2 := make([]byte, 1600)
	if err := ls.CopyOut(addr, w2); err != nil || w2[1599] != byte(1599%256) {
		t.Fatalf("CopyOut does not read what CopyIn wrote (%v)", err)
	}
	ls.Release()
	if ls.Free() != 256*1024-Align(ls.Resident(), 16) {
		t.Fatalf("free after release = %d", ls.Free())
	}
}

func TestLocalStoreOverflow(t *testing.T) {
	ls := NewLocalStore(256 * 1024)
	if err := ls.LoadImage("huge", 300*1024); err == nil {
		t.Fatal("oversized image load succeeded")
	}
	if err := ls.LoadImage("rt", 200*1024); err != nil {
		t.Fatal(err)
	}
	_, err := ls.Alloc("buf", 100*1024, 16)
	var ov *ErrLSOverflow
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want ErrLSOverflow", err)
	}
	if ov.Want != 100*1024 || !strings.Contains(err.Error(), "local store overflow") {
		t.Fatalf("bad overflow detail: %v", err)
	}
}

func TestLocalStoreLIFO(t *testing.T) {
	ls := NewLocalStore(64 * 1024)
	a1, _ := ls.Alloc("a", 100, 16)
	a2, _ := ls.Alloc("b", 100, 16)
	if a2 <= a1 {
		t.Fatalf("allocations not increasing: %#x then %#x", a1, a2)
	}
	ls.Release()
	a3, _ := ls.Alloc("c", 100, 16)
	if a3 != a2 {
		t.Fatalf("LIFO release not reusing space: %#x vs %#x", a3, a2)
	}
	if err := ls.Release(); err != nil {
		t.Fatalf("matched Release errored: %v", err)
	}
	if err := ls.Release(); err != nil {
		t.Fatalf("matched Release errored: %v", err)
	}
	if err := ls.Release(); err == nil {
		t.Fatal("unbalanced Release did not error")
	}
}

func TestLocalStoreWindowBounds(t *testing.T) {
	ls := NewLocalStore(1024)
	if _, err := ls.Segments(1000, 100, nil); err == nil {
		t.Fatal("out-of-range segments succeeded")
	}
	if _, err := ls.Segments(0, -1, nil); err == nil {
		t.Fatal("negative range succeeded")
	}
	if err := ls.CopyIn(1000, make([]byte, 100)); err == nil {
		t.Fatal("out-of-range CopyIn succeeded")
	}
	if err := ls.CopyOut(1000, make([]byte, 100)); err == nil {
		t.Fatal("out-of-range CopyOut succeeded")
	}
	if segs, err := ls.Segments(1024, 0, nil); err != nil || len(segs) != 0 {
		t.Fatalf("empty range at the end: %d segments, %v", len(segs), err)
	}
	if ls.Backed() != 0 {
		t.Fatal("refused and empty ranges backed a page")
	}
}

// Property: alloc/release sequences never hand out overlapping live buffers
// and never exceed the store.
func TestLocalStoreAllocProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		ls := NewLocalStore(64 * 1024)
		type span struct{ lo, hi int }
		var live []span
		for _, s := range sizes {
			n := int(s%4096) + 1
			addr, err := ls.Alloc("x", n, 16)
			if err != nil {
				// Overflow is fine; the store must still be consistent.
				continue
			}
			sp := span{int(addr), int(addr) + n}
			if sp.hi > ls.Size() {
				return false
			}
			for _, o := range live {
				if sp.lo < o.hi && o.lo < sp.hi {
					return false // overlap
				}
			}
			live = append(live, sp)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignHelpers(t *testing.T) {
	cases := []struct{ n, a, want int }{
		{0, 16, 0}, {1, 16, 16}, {16, 16, 16}, {17, 16, 32}, {100, 128, 128},
	}
	for _, c := range cases {
		if got := Align(c.n, c.a); got != c.want {
			t.Errorf("Align(%d,%d) = %d, want %d", c.n, c.a, got, c.want)
		}
	}
	if !IsAligned(0x1230, 16) || IsAligned(0x1231, 16) {
		t.Fatal("IsAligned wrong")
	}
}
