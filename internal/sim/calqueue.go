package sim

import "sort"

// calQueue is a calendar queue (Brown 1988): a power-of-two array of
// buckets, each a sorted slice of events, where bucket index is
// (at / width) mod nbuckets. One "year" spans width*nbuckets of virtual
// time. Pop scans forward from the current position, accepting the head
// of a bucket only while it falls inside that bucket's current-year
// window; because the windows tile virtual time contiguously starting at
// the last popped timestamp, the first acceptable head is the exact
// eventLess minimum. When a whole year is empty the queue falls back to a
// direct search over all bucket heads. The structure is tuned by resizing
// (re-deriving the bucket count from the population and the width from
// the observed event span) when the population grows past twice the
// bucket count or falls below an eighth of it, which keeps both the push
// insertion sort and the pop scan O(1) amortized for the bursty
// short-horizon timer mix the Co-Pilot scan loops generate.
//
// Determinism: the queue orders purely by eventLess (at, seq) —
// events at equal timestamps land in the same bucket and are kept sorted
// there — so its pop sequence is bit-for-bit identical to heapQueue's.
type calQueue struct {
	buckets [][]*event
	mask    int  // len(buckets)-1; len is a power of two
	width   Time // virtual-time span of one bucket
	size    int
	// Current position: cur is the bucket the last pop came from and
	// curTop the end of its current-year window. The scan resumes here.
	cur    int
	curTop Time
	floor  Time // last popped timestamp; no event below it can be pushed
	// Cached Peek result and its location, so the Peek+Pop pair in the
	// scheduler loop pays for one scan, not two.
	pk       *event
	pkBucket int
	pkTop    Time
	scratch  []*event // rebuild buffer, reused across resizes
}

const (
	calMinBuckets = 1 << 4
	calMaxBuckets = 1 << 18
	// calShrinkDiv sets the shrink threshold: population below
	// buckets/calShrinkDiv. A resize leaves the population between half
	// and all of the bucket count, so a threshold of a half would rebuild
	// the calendar as soon as the population dipped below its level at
	// the last resize, and again when it recovered, reallocating the
	// bucket array and every bucket each time. An eighth leaves a 16x band
	// (buckets/8 to 2*buckets) in which it moves without a rebuild.
	calShrinkDiv = 8
	// calInitWidth is the starting bucket width. Resizes re-derive it
	// from the live event spread, so this only matters until the first
	// resize at ~2*calMinBuckets events.
	calInitWidth = Time(1000) // 1us in virtual ns
	// calMaxWidth caps the derived bucket width so year-window math
	// (top = floor + k*width) stays far from Time overflow even with
	// events parked near Forever.
	calMaxWidth = Time(1) << 50
)

// calTop is the end of the current-year window of the bucket holding t:
// the smallest multiple of w strictly above t, saturating at Forever so
// events near the end of time degrade to the direct-search path instead
// of wrapping the window math.
func calTop(t, w Time) Time {
	top := (t/w + 1) * w
	if top < t {
		return Forever
	}
	return top
}

func newCalQueue() *calQueue {
	q := &calQueue{
		buckets: make([][]*event, calMinBuckets),
		mask:    calMinBuckets - 1,
		width:   calInitWidth,
	}
	q.setPos(0)
	return q
}

func (q *calQueue) Len() int { return q.size }

func (q *calQueue) bucketOf(at Time) int {
	return int(uint64(at/q.width) & uint64(q.mask))
}

// setPos aligns the scan position so that bucket cur's current-year
// window [curTop-width, curTop) contains t.
func (q *calQueue) setPos(t Time) {
	q.cur = q.bucketOf(t)
	q.curTop = calTop(t, q.width)
}

func (q *calQueue) Push(ev *event) {
	b := q.bucketOf(ev.at)
	s := q.buckets[b]
	// Monotone inserts (the common case: timers armed "now + d" with
	// fresh seq) append; otherwise binary-search the slot.
	if n := len(s); n == 0 || eventLess(s[n-1], ev) {
		q.buckets[b] = append(s, ev)
	} else {
		i := sort.Search(n, func(i int) bool { return eventLess(ev, s[i]) })
		s = append(s, nil)
		copy(s[i+1:], s[i:])
		s[i] = ev
		q.buckets[b] = s
	}
	q.size++
	if q.pk != nil && eventLess(ev, q.pk) {
		q.pk = nil
	}
	if q.size > 2*(q.mask+1) && q.mask+1 < calMaxBuckets {
		q.resize()
	}
}

// Peek locates the eventLess minimum and caches its position for Pop.
func (q *calQueue) Peek() *event {
	if q.pk != nil {
		return q.pk
	}
	if q.size == 0 {
		return nil
	}
	// Year scan from the current position: windows tile virtual time
	// contiguously from curTop-width, so any queued event earlier in
	// time maps to an earlier scan offset and the first in-window head
	// is the global minimum.
	i, top := q.cur, q.curTop
	for n := 0; n <= q.mask; n++ {
		if b := q.buckets[i]; len(b) > 0 && b[0].at < top {
			q.pk, q.pkBucket, q.pkTop = b[0], i, top
			return q.pk
		}
		i = (i + 1) & q.mask
		next := top + q.width
		if next < top { // virtual-time overflow: fall to direct search
			break
		}
		top = next
	}
	// Sparse year: direct search over all bucket heads.
	var best *event
	bestB := 0
	for j, b := range q.buckets {
		if len(b) > 0 && (best == nil || eventLess(b[0], best)) {
			best, bestB = b[0], j
		}
	}
	q.pk, q.pkBucket = best, bestB
	q.pkTop = calTop(best.at, q.width)
	return best
}

func (q *calQueue) Pop() *event {
	ev := q.Peek()
	if ev == nil {
		return nil
	}
	b := q.buckets[q.pkBucket]
	copy(b, b[1:])
	b[len(b)-1] = nil
	q.buckets[q.pkBucket] = b[:len(b)-1]
	q.cur, q.curTop = q.pkBucket, q.pkTop
	q.floor = ev.at
	q.size--
	q.pk = nil
	if n := q.mask + 1; n > calMinBuckets && q.size < n/calShrinkDiv {
		q.resize()
	}
	return ev
}

// resize rebuilds the calendar with a bucket count proportional to the
// population and a width derived from the live events' spread, then
// re-anchors the scan at the floor.
func (q *calQueue) resize() {
	evs := q.scratch[:0]
	for _, b := range q.buckets {
		evs = append(evs, b...)
	}
	nb := calMinBuckets
	for nb < q.size && nb < calMaxBuckets {
		nb <<= 1
	}
	var lo, hi Time
	if len(evs) > 0 {
		lo, hi = evs[0].at, evs[0].at
		for _, ev := range evs[1:] {
			if ev.at < lo {
				lo = ev.at
			}
			if ev.at > hi {
				hi = ev.at
			}
		}
	}
	// Width targets ~3 events per bucket over the observed span: wide
	// enough that the pop scan usually hits within a bucket or two,
	// narrow enough that per-bucket insertion sorts stay short.
	w := Time(1)
	if len(evs) > 1 {
		gap := (hi - lo) / Time(len(evs))
		if gap > calMaxWidth/3 {
			gap = calMaxWidth / 3
		}
		w = 3 * gap
		if w < 1 {
			w = 1
		}
	}
	q.buckets = make([][]*event, nb)
	q.mask = nb - 1
	q.width = w
	q.size = 0
	q.pk = nil
	q.setPos(q.floor)
	for _, ev := range evs {
		q.Push(ev)
	}
	// Keep the collected slice (emptied) for the next rebuild.
	for i := range evs {
		evs[i] = nil
	}
	q.scratch = evs[:0]
}

// Remove finds ev by binary search in its bucket, which is sorted in
// eventLess order, and takes it out.
func (q *calQueue) Remove(ev *event) bool {
	b := q.bucketOf(ev.at)
	s := q.buckets[b]
	i := sort.Search(len(s), func(i int) bool { return !eventLess(s[i], ev) })
	if i == len(s) || s[i] != ev {
		return false
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	q.buckets[b] = s[:len(s)-1]
	q.size--
	if q.pk == ev {
		q.pk = nil
	}
	if n := q.mask + 1; n > calMinBuckets && q.size < n/calShrinkDiv {
		q.resize()
	}
	return true
}

func (q *calQueue) Clear() {
	q.buckets = make([][]*event, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.width = calInitWidth
	q.size = 0
	q.pk = nil
	q.scratch = nil
	q.floor = 0
	q.setPos(0)
}
