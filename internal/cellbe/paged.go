package cellbe

// PageSize is the granule in which the host backs simulated memory: a
// local store or main memory holds only the pages a program has touched.
const PageSize = 1 << pageShift

const pageShift = 12

// leafPages is how many pages one leaf of a page table maps: 64 pages,
// 256 KiB, so a local store's table is a single leaf.
const (
	leafPages = 1 << leafShift
	leafShift = 6
)

// leaf is one level-two block of a page table; an entry stays nil until
// its page's first touch.
type leaf [leafPages]*[PageSize]byte

// pages is the host backing that LocalStore and Memory share: a
// two-level page table. The directory is nil until the store's first
// touch, a directory entry until the first touch of a page it covers, and
// a leaf entry until its own page's first touch, so a store pays for the
// directory, one 512-byte leaf per 256 KiB region it touches and the
// pages themselves. A page never moves once allocated, so a segment taken
// earlier keeps aliasing the store after later accesses. The methods take
// ranges their store has already checked.
type pages []*leaf

// page returns page i of a store of size bytes, backing it (and the
// directory and leaf that map it) on first touch.
func (pt *pages) page(size, i int) *[PageSize]byte {
	if *pt == nil {
		npages := (size + PageSize - 1) >> pageShift
		*pt = make(pages, (npages+leafPages-1)>>leafShift)
	}
	lf := (*pt)[i>>leafShift]
	if lf == nil {
		lf = new(leaf)
		(*pt)[i>>leafShift] = lf
	}
	pg := lf[i&(leafPages-1)]
	if pg == nil {
		pg = new([PageSize]byte)
		lf[i&(leafPages-1)] = pg
	}
	return pg
}

// backedPage returns page i, or nil if it was never touched; it backs
// nothing.
func (pt pages) backedPage(i int) *[PageSize]byte {
	if pt == nil || pt[i>>leafShift] == nil {
		return nil
	}
	return pt[i>>leafShift][i&(leafPages-1)]
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
		if pg := pt.backedPage(off >> pageShift); pg != nil {
			copy(dst[:k], pg[in:])
		} else {
			clear(dst[:k])
		}
		dst, off = dst[k:], off+k
	}
}

// backed reports the host bytes the pages hold.
func (pt pages) backed() int {
	n := 0
	for _, lf := range pt {
		if lf == nil {
			continue
		}
		for _, pg := range lf {
			if pg != nil {
				n += PageSize
			}
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
