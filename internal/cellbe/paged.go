package cellbe

// PageSize is the granule in which the host backs simulated memory: a
// local store or main memory holds only the pages a program has touched.
const PageSize = 1 << pageShift

const pageShift = 12

// pages is the host backing that LocalStore and Memory share: a page
// table, nil until the store's first touch, whose entries stay nil until
// their own page's first touch. A page never moves once allocated, so a
// segment taken earlier keeps aliasing the store after later accesses.
// The methods take ranges their store has already checked.
type pages []*[PageSize]byte

// page returns page i of a store of size bytes, backing it (and the table)
// on first touch.
func (pt *pages) page(size, i int) *[PageSize]byte {
	if *pt == nil {
		*pt = make(pages, (size+PageSize-1)>>pageShift)
	}
	pg := (*pt)[i]
	if pg == nil {
		pg = new([PageSize]byte)
		(*pt)[i] = pg
	}
	return pg
}

// segments appends to dst one view per page that [off, off+n) covers,
// each capped at its own end so an append cannot spill into the next.
func (pt *pages) segments(size, off, n int, dst [][]byte) [][]byte {
	for n > 0 {
		pg := pt.page(size, off>>pageShift)
		in := off & (PageSize - 1)
		k := min(n, PageSize-in)
		dst = append(dst, pg[in:in+k:in+k])
		off, n = off+k, n-k
	}
	return dst
}

// copyIn writes src at off, backing the pages it covers.
func (pt *pages) copyIn(size, off int, src []byte) {
	for len(src) > 0 {
		k := copy(pt.page(size, off>>pageShift)[off&(PageSize-1):], src)
		src, off = src[k:], off+k
	}
}

// copyOut reads dst's length from off. An untouched page reads as zeros
// and stays unbacked.
func (pt pages) copyOut(off int, dst []byte) {
	for len(dst) > 0 {
		in := off & (PageSize - 1)
		k := min(len(dst), PageSize-in)
		if pt != nil && pt[off>>pageShift] != nil {
			copy(dst[:k], pt[off>>pageShift][in:])
		} else {
			clear(dst[:k])
		}
		dst, off = dst[k:], off+k
	}
}

// backed reports the host bytes the pages hold.
func (pt pages) backed() int {
	n := 0
	for _, pg := range pt {
		if pg != nil {
			n += PageSize
		}
	}
	return n
}

// CopySegments copies the bytes of src's segments, in order, into dst's
// segments, and returns how many it copied: the smaller of the two
// lists' total lengths. It copies piece by piece from the front, so two
// lists that overlap in memory must not be given.
func CopySegments(dst, src [][]byte) int {
	var d, s []byte
	total := 0
	for {
		for len(d) == 0 {
			if len(dst) == 0 {
				return total
			}
			d, dst = dst[0], dst[1:]
		}
		for len(s) == 0 {
			if len(src) == 0 {
				return total
			}
			s, src = src[0], src[1:]
		}
		k := copy(d, s)
		d, s, total = d[k:], s[k:], total+k
	}
}
