package cellbe

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cellpilot/internal/sim"
)

// pagedRef is FuzzPagedStore's reference model: SPE 0's local store, SPE
// 1's (reached through the EA map) and main memory as flat byte slices,
// with the error texts the paged stores must reproduce.
type pagedRef struct {
	ls, peer, mem []byte
	peerBase      int64
	peerName      string
}

func (r *pagedRef) lsCheck(addr uint32, n int) error {
	if n < 0 || int64(addr)+int64(n) > int64(len(r.ls)) {
		return fmt.Errorf("cellbe: LS access [%#x,+%d) out of range (size %d)", addr, n, len(r.ls))
	}
	return nil
}

func (r *pagedRef) memCheck(addr int64, n int) error {
	if addr < 0 || n < 0 || addr+int64(n) > int64(len(r.mem)) {
		return fmt.Errorf("cellbe: main memory access [%#x,+%d) out of range", addr, n)
	}
	return nil
}

// ea resolves an effective-address range the fuzzer draws: in main memory
// or in SPE 1's mapped local store.
func (r *pagedRef) ea(ea int64, n int) ([]byte, error) {
	if ea < LSMapBase {
		if err := r.memCheck(ea, n); err != nil {
			return nil, err
		}
		return r.mem[ea : ea+int64(n)], nil
	}
	off := ea - r.peerBase
	if off+int64(n) > int64(len(r.peer)) {
		return nil, fmt.Errorf("cellbe: EA range [%#x,+%d) exceeds %s local store", ea, n, r.peerName)
	}
	return r.peer[off : off+int64(n)], nil
}

// dma applies one transfer's bytes between SPE 0's store and ea, after
// the DMA rules.
func (r *pagedRef) dma(lsAddr uint32, ea int64, n int, put bool) error {
	if err := r.lsCheck(lsAddr, n); err != nil {
		return err
	}
	win, err := r.ea(ea, n)
	if err != nil {
		return err
	}
	if put {
		copy(win, r.ls[lsAddr:])
	} else {
		copy(r.ls[lsAddr:int(lsAddr)+n], win)
	}
	return nil
}

// dmaList is transferList's contract: every element checked against the
// DMA rules, the whole LS range and every element's EA range checked
// before a byte moves, then the elements applied in order.
func (r *pagedRef) dmaList(lsAddr uint32, list []ListElement, put bool) error {
	off, total := lsAddr, 0
	for i, el := range list {
		if err := checkDMA(off, el.EA, el.Size); err != nil {
			return fmt.Errorf("cellbe: DMA list element %d: %w", i, err)
		}
		off += uint32(el.Size)
		total += el.Size
	}
	if err := r.lsCheck(lsAddr, total); err != nil {
		return err
	}
	for _, el := range list {
		if _, err := r.ea(el.EA, el.Size); err != nil {
			return err
		}
	}
	off = lsAddr
	for _, el := range list {
		r.dma(off, el.EA, el.Size, put)
		off += uint32(el.Size)
	}
	return nil
}

// fuzzInput reads a fuzz case as a stream of bytes, zeros once spent.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u16() int { return int(in.byte())<<8 | int(in.byte()) }

// below draws a number under n: from two bytes, or from three when n
// exceeds what two can reach.
func (in *fuzzInput) below(n int) int {
	if n <= 1<<16 {
		return in.u16() % n
	}
	return (in.u16()<<8 | int(in.byte())) % n
}

// span draws a range over a store of size bytes: anywhere (often past
// the end), ending exactly at the end, empty, one byte too long, or of
// negative length.
func (in *fuzzInput) span(size int) (addr, n int) {
	mode := in.byte()
	addr = in.below(size + 1)
	switch mode % 5 {
	case 0:
		return in.below(size + 64), in.u16() % (3 * PageSize)
	case 1:
		return addr, size - addr
	case 2:
		return addr, 0
	case 3:
		return addr, size - addr + 1
	default:
		return addr, -1
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzPagedStore checks the paged local store and main memory against a
// flat byte-slice reference: Segments, CopyIn and CopyOut on both, and
// single and list DMA between a local store and main memory or another
// SPE's mapped store. Ranges cross pages, are empty, end at a store's
// last byte or overrun it; both stores' sizes end mid-page. With wide set,
// main memory spans three leaves of the page table, the last one partly,
// so ranges also cross leaves. Bytes and error texts must match the
// reference after every operation.
func FuzzPagedStore(f *testing.F) {
	// Seeds of a few dozen operations each, so a plain test run already
	// covers every operation kind.
	for seed := int64(1); seed <= 12; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(seed > 8, b)
	}
	// Operations across the boundary between main memory's first two
	// leaves, at 256 KiB (0x40000).
	f.Add(true, []byte{
		0x83, 0x5A, 0, 0, 0, 0, 0x03, 0xFF, 0x9C, 0x01, 0x2C, // CopyIn [0x3ff9c,+300)
		0x82, 0x33, 0, 0, 0, 0, 0x03, 0xFF, 0x70, 0x03, 0xE8, // Segments [0x3ff70,+1000)
		0x03, 0x01, 0x00, 0x00, 0x00, 0xFF, 0x3F, 0x80, // DMA put of 4 KiB to 0x3f800
		0x84, 0x00, 0, 0, 0, 0, 0x03, 0xF7, 0xA0, 0x0F, 0xA0, // CopyOut [0x3f7a0,+4000)
		// List get: 1 KiB from 0x3ffc0 and 256 B from 0x80000, the
		// third leaf's first byte.
		0x04, 0x02, 0x00, 0x10, 0x00, 0x3F, 0x3F, 0xFC, 0x00, 0x0F, 0x80, 0x00,
		// List put: 256 B to 0x3ff80, then 256 B past the end of memory,
		// which rejects the whole list.
		0x04, 0x03, 0x00, 0x00, 0x00, 0x0F, 0x3F, 0xF8, 0x00, 0x0F, 0x85, 0x3F,
	})
	f.Fuzz(func(t *testing.T, wide bool, data []byte) {
		par := DefaultParams()
		par.LSSize = 3*PageSize + 512
		memSize := 5*PageSize + 1000
		if wide {
			memSize = 2*leafPages*PageSize + 5*PageSize + 1000
		}
		k := sim.NewKernel(1)
		node := NewCellNode(0, "c", 1, par, memSize)
		spe, _ := node.SPE(0)
		peer, _ := node.SPE(1)
		ref := &pagedRef{
			ls: make([]byte, par.LSSize), peer: make([]byte, par.LSSize), mem: make([]byte, memSize),
			peerBase: peer.LSBase(), peerName: peer.Name(),
		}
		in := fuzzInput(data)
		var fail string
		mismatch := func(op string, got, want error) bool {
			if errText(got) != errText(want) {
				fail = fmt.Sprintf("%s: error %q, reference %q", op, errText(got), errText(want))
				return true
			}
			return false
		}
		k.Spawn("fuzz", func(p *sim.Proc) {
			for op := 0; len(in) > 0 && fail == ""; op++ {
				kind := in.byte()
				onMem := kind&0x80 != 0
				pattern := in.byte()
				size, flat := par.LSSize, ref.ls
				if onMem {
					size, flat = memSize, ref.mem
				}
				switch kind % 5 {
				case 0: // Segments, then a write through every segment
					addr, n := in.span(size)
					var segs [][]byte
					var err, want error
					if onMem {
						segs, err = node.Mem.Segments(int64(addr), n, nil)
						want = ref.memCheck(int64(addr), n)
					} else {
						segs, err = spe.LS.Segments(uint32(addr), n, nil)
						want = ref.lsCheck(uint32(addr), n)
					}
					if mismatch(fmt.Sprintf("op %d Segments(%#x,+%d)", op, addr, n), err, want) || err != nil {
						continue
					}
					at := addr
					for _, seg := range segs {
						if len(seg) == 0 || at+len(seg) > addr+n || cap(seg) != len(seg) || at/PageSize != (at+len(seg)-1)/PageSize ||
							(at%PageSize != 0 && at != addr) || !bytes.Equal(seg, flat[at:at+len(seg)]) {
							fail = fmt.Sprintf("op %d Segments(%#x,+%d): bad segment of %d bytes at %#x", op, addr, n, len(seg), at)
							break
						}
						for i := range seg {
							seg[i] = pattern + byte(at+i)
							flat[at+i] = seg[i]
						}
						at += len(seg)
					}
					if fail == "" && at != addr+n {
						fail = fmt.Sprintf("op %d Segments(%#x,+%d) cover %d bytes", op, addr, n, at-addr)
					}
				case 1: // CopyIn
					addr, n := in.span(size)
					src := bytes.Repeat([]byte{pattern}, max(n, 0))
					var err, want error
					if onMem {
						err, want = node.Mem.CopyIn(int64(addr), src), ref.memCheck(int64(addr), len(src))
					} else {
						err, want = spe.LS.CopyIn(uint32(addr), src), ref.lsCheck(uint32(addr), len(src))
					}
					if !mismatch(fmt.Sprintf("op %d CopyIn(%#x,+%d)", op, addr, len(src)), err, want) && err == nil {
						copy(flat[addr:], src)
					}
				case 2: // CopyOut
					addr, n := in.span(size)
					dst := bytes.Repeat([]byte{^pattern}, max(n, 0)) // stale bytes CopyOut must overwrite
					var err, want error
					if onMem {
						err, want = node.Mem.CopyOut(int64(addr), dst), ref.memCheck(int64(addr), len(dst))
					} else {
						err, want = spe.LS.CopyOut(uint32(addr), dst), ref.lsCheck(uint32(addr), len(dst))
					}
					if !mismatch(fmt.Sprintf("op %d CopyOut(%#x,+%d)", op, addr, len(dst)), err, want) && err == nil &&
						!bytes.Equal(dst, flat[addr:addr+len(dst)]) {
						fail = fmt.Sprintf("op %d CopyOut(%#x,+%d) read other bytes than the reference", op, addr, len(dst))
					}
				case 3: // single DMA, 16-byte aligned, up to MaxDMASize
					lsAddr := uint32(in.u16()%(par.LSSize/16+2)) * 16
					n := 16 * (1 + in.u16()%(MaxDMASize/16))
					ea := dmaTarget(&in, kind, ref, memSize)
					put := pattern&1 != 0
					var err error
					if put {
						err = spe.MFC.Put(p, lsAddr, ea, n, 1)
					} else {
						err = spe.MFC.Get(p, lsAddr, ea, n, 1)
					}
					want := checkDMA(lsAddr, ea, n)
					if want == nil {
						want = ref.dma(lsAddr, ea, n, put)
					}
					mismatch(fmt.Sprintf("op %d DMA(put=%v ls=%#x ea=%#x +%d)", op, put, lsAddr, ea, n), err, want)
				case 4: // list DMA of one to four elements
					lsAddr := uint32(in.u16()%(par.LSSize/16+2)) * 16
					list := make([]ListElement, 1+int(pattern>>1)%4)
					for i := range list {
						list[i] = ListElement{Size: 16 * (1 + in.u16()%256), EA: dmaTarget(&in, kind, ref, memSize)}
					}
					put := pattern&1 != 0
					var err error
					if put {
						err = spe.MFC.PutList(p, lsAddr, list, 2)
					} else {
						err = spe.MFC.GetList(p, lsAddr, list, 2)
					}
					mismatch(fmt.Sprintf("op %d DMA list(put=%v ls=%#x %v)", op, put, lsAddr, list), err, ref.dmaList(lsAddr, list, put))
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if fail != "" {
			t.Fatal(fail)
		}
		for _, c := range []struct {
			name string
			read func([]byte) error
			want []byte
		}{
			{"SPE 0 local store", func(b []byte) error { return spe.LS.CopyOut(0, b) }, ref.ls},
			{"SPE 1 local store", func(b []byte) error { return peer.LS.CopyOut(0, b) }, ref.peer},
			{"main memory", func(b []byte) error { return node.Mem.CopyOut(0, b) }, ref.mem},
		} {
			got := make([]byte, len(c.want))
			if err := c.read(got); err != nil || !bytes.Equal(got, c.want) {
				t.Fatalf("%s differs from the reference (%v)", c.name, err)
			}
		}
	})
}

// dmaTarget draws a 16-byte-aligned effective address in main memory or,
// when kind's bit 6 is set, in SPE 1's mapped local store; either may lie
// past its store's end.
func dmaTarget(in *fuzzInput, kind byte, ref *pagedRef, memSize int) int64 {
	if kind&0x40 != 0 {
		return ref.peerBase + int64(in.u16()%(len(ref.peer)/16+2))*16
	}
	return int64(in.u16()%(memSize/16+2)) * 16
}
