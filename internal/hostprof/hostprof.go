// Package hostprof measures what the simulator itself costs on the host:
// wall-clock time, not virtual time. It is the dual of internal/profile
// (which attributes the *virtual* timeline) — hostprof answers "how many
// events per second does the kernel dispatch, how many allocations does a
// transfer cost, and which subsystem burns the host CPU", the questions
// that bound how far the simulator scales.
//
// Everything here rides strictly outside the virtual timeline: a Profiler
// never reads or advances the virtual clock, never touches the kernel RNG,
// and never changes any scheduling decision, so a run with one attached is
// bit-for-bit identical (virtual times, chaos fingerprints, trace spans)
// to a run without.
//
// Two instrumentation layers feed a Profiler:
//
//   - Kernel counters (sim.HostProbe): events dispatched, heap push/pop
//     counts, max heap depth, cancelled timers purged (each removed from
//     the queue at once by Timer.Cancel). Counting is always on while
//     attached; wall-clock timing of execution slices is sampled every
//     Stride-th slice so the hot event loop pays two time.Now calls only
//     occasionally (<2% overhead at the default stride).
//
//   - Subsystem frames (Enter/Exit): lightweight hooks at the existing
//     span-phase boundaries of the Co-Pilot service loop, the MPI stack,
//     the interconnect and fmtmsg pack/unpack. Frames are kept per proc,
//     so a frame opened before a park correctly tags only that proc's own
//     execution slices — wall time while the proc is parked is attributed
//     to whatever actually runs. Within a sampled slice attribution is
//     exclusive: a frame's time excludes its nested children.
//
// The Profiler is confined by the same execution protocol as the kernel:
// exactly one goroutine (scheduler or the single running proc) calls into
// it at a time, so it needs no locks and adds no synchronization to the
// simulation.
package hostprof

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cellpilot/internal/metrics"
)

// Subsystem labels one host-time attribution bucket.
type Subsystem int

// Attribution buckets. SubsysKernel collects scheduler callbacks and any
// simulation code outside an instrumented frame running in scheduler
// context; SubsysUser collects proc code outside any instrumented frame
// (the workload bodies themselves).
const (
	SubsysKernel Subsystem = iota
	SubsysUser
	SubsysCoPilot
	SubsysMPI
	SubsysInterconnect
	SubsysFmtmsg
	NumSubsystems
)

// String implements fmt.Stringer.
func (s Subsystem) String() string {
	switch s {
	case SubsysKernel:
		return "kernel"
	case SubsysUser:
		return "user"
	case SubsysCoPilot:
		return "copilot"
	case SubsysMPI:
		return "mpi"
	case SubsysInterconnect:
		return "interconnect"
	case SubsysFmtmsg:
		return "fmtmsg"
	default:
		return fmt.Sprintf("subsys(%d)", int(s))
	}
}

// DefaultStride samples one execution slice in 64, so the event loop pays
// for two time.Now calls only occasionally. Subsystem shares at this
// stride are estimates; for exact per-layer attribution use stride 1, as
// the benchmark's traced run (bench -trace 1) does.
const DefaultStride = 64

// subsysAcc accumulates one bucket.
type subsysAcc struct {
	calls uint64 // Enter calls, always counted
	ns    int64  // exclusive wall ns within sampled slices
}

// procTags is one proc's persistent frame stack. It survives parks: a
// frame opened before a park is still the proc's innermost tag when the
// scheduler resumes it later.
type procTags struct {
	stack []Subsystem
}

// Profiler implements sim.HostProbe and the subsystem Enter/Exit hooks.
// Attach to a kernel with Kernel.SetHostProbe and to an App via
// App.HostProf. All methods are safe on a nil receiver (no-ops), so call
// sites can hook unconditionally.
type Profiler struct {
	stride uint64

	// Kernel counters, always on while attached.
	events   uint64
	pushes   uint64
	pops     uint64
	purged   uint64
	maxDepth int

	// Slice sampling.
	slices    uint64
	sampled   uint64
	sampledNs int64
	sampling  bool
	sliceT0   time.Time
	segT0     time.Time

	subsys [NumSubsystems]subsysAcc

	// absorbed counts the snapshots of other kernels' profilers merged in
	// via Absorb; a plain single-kernel run leaves it zero.
	absorbed int

	tags    map[int]*procTags
	scratch *procTags // scheduler-callback stack (proc -1); never spans a slice
	cur     *procTags
	curProc int
}

// New creates a profiler sampling every stride-th execution slice
// (stride <= 0 selects DefaultStride).
func New(stride int) *Profiler {
	if stride <= 0 {
		stride = DefaultStride
	}
	return &Profiler{
		stride:  uint64(stride),
		tags:    map[int]*procTags{},
		scratch: &procTags{},
		curProc: -1,
	}
}

// --- sim.HostProbe ---

// Event counts one dispatched kernel event.
func (p *Profiler) Event() {
	if p == nil {
		return
	}
	p.events++
}

// HeapPush counts one event-heap push and tracks the depth watermark.
func (p *Profiler) HeapPush(depth int) {
	if p == nil {
		return
	}
	p.pushes++
	if depth > p.maxDepth {
		p.maxDepth = depth
	}
}

// HeapPop counts one event leaving the queue: popped to run, or removed
// by a timer's Cancel.
func (p *Profiler) HeapPop() {
	if p == nil {
		return
	}
	p.pops++
}

// CancelPurge counts one cancelled timer removed from the queue
// unexecuted.
func (p *Profiler) CancelPurge() {
	if p == nil {
		return
	}
	p.purged++
}

// SliceStart begins one host execution slice for proc (-1 = scheduler
// callback). Every stride-th slice is timed.
func (p *Profiler) SliceStart(proc int) {
	if p == nil {
		return
	}
	p.slices++
	p.curProc = proc
	if proc < 0 {
		p.scratch.stack = p.scratch.stack[:0] // callbacks never span slices
		p.cur = p.scratch
	} else {
		p.cur = p.tagsFor(proc)
	}
	if p.slices%p.stride == 0 {
		now := time.Now()
		p.sampling = true
		p.sliceT0 = now
		p.segT0 = now
	}
}

// SliceEnd closes the slice opened by the matching SliceStart.
func (p *Profiler) SliceEnd(proc int) {
	if p == nil {
		return
	}
	if p.sampling {
		now := time.Now()
		p.flushSeg(now)
		p.sampledNs += now.Sub(p.sliceT0).Nanoseconds()
		p.sampled++
		p.sampling = false
	}
	p.cur = nil
	p.curProc = -1
}

func (p *Profiler) tagsFor(proc int) *procTags {
	t, ok := p.tags[proc]
	if !ok {
		t = &procTags{}
		p.tags[proc] = t
	}
	return t
}

// topTag reports the bucket the current segment belongs to.
func (p *Profiler) topTag() Subsystem {
	if p.cur != nil && len(p.cur.stack) > 0 {
		return p.cur.stack[len(p.cur.stack)-1]
	}
	if p.curProc < 0 {
		return SubsysKernel
	}
	return SubsysUser
}

// flushSeg attributes the wall time since segT0 to the current tag.
func (p *Profiler) flushSeg(now time.Time) {
	p.subsys[p.topTag()].ns += now.Sub(p.segT0).Nanoseconds()
	p.segT0 = now
}

// --- subsystem frames ---

// Enter opens a subsystem frame on the current proc's stack. Frames must
// be closed with Exit in LIFO order (use defer); a frame may span parks —
// only the owning proc's own execution slices are charged to it. Safe on
// a nil receiver.
func (p *Profiler) Enter(s Subsystem) {
	if p == nil {
		return
	}
	if p.sampling {
		p.flushSeg(time.Now())
	}
	st := p.cur
	if st == nil {
		st = p.scratch // Enter outside any slice (e.g. before Run): inert tag
	}
	st.stack = append(st.stack, s)
	p.subsys[s].calls++
}

// Exit closes the innermost frame. Safe on a nil receiver and tolerant of
// an empty stack (a proc unwound by fault injection mid-frame).
func (p *Profiler) Exit() {
	if p == nil {
		return
	}
	if p.sampling {
		p.flushSeg(time.Now())
	}
	st := p.cur
	if st == nil {
		st = p.scratch
	}
	if n := len(st.stack); n > 0 {
		st.stack = st.stack[:n-1]
	}
}

// --- multi-kernel aggregation ---

// subsysByName inverts Subsystem.String for Absorb's name-keyed merge.
func subsysByName(name string) (Subsystem, bool) {
	for i := Subsystem(0); i < NumSubsystems; i++ {
		if i.String() == name {
			return i, true
		}
	}
	return 0, false
}

// Absorb merges another profiler's snapshot into this one — the
// aggregation path for runs of several kernels, each confined to its own
// Profiler (the benchmark merges the clusters of one rep this way).
// Counters and sampled time add; the heap-depth watermark takes the max
// (it is a per-kernel depth, so the merged value reads as "deepest queue
// any kernel saw"). Subsystem buckets merge by name, so a snapshot from
// an older schema with fewer buckets still lands correctly. Safe on a nil
// receiver.
func (p *Profiler) Absorb(s Snapshot) {
	if p == nil {
		return
	}
	p.events += s.Events
	p.pushes += s.HeapPushes
	p.pops += s.HeapPops
	p.purged += s.CancelPurged
	if s.MaxHeapDepth > p.maxDepth {
		p.maxDepth = s.MaxHeapDepth
	}
	p.slices += s.Slices
	p.sampled += s.SampledSlices
	p.sampledNs += s.SampledNs
	for _, sh := range s.Subsystems {
		if i, ok := subsysByName(sh.Name); ok {
			p.subsys[i].calls += sh.Calls
			p.subsys[i].ns += sh.SampledNs
		}
	}
	if s.Shards > 0 {
		p.absorbed += s.Shards
	} else {
		p.absorbed++
	}
}

// --- reporting ---

// SubsysShare is one bucket's slice of the sampled host time.
type SubsysShare struct {
	Name string `json:"name"`
	// Calls counts Enter frames (0 for the implicit kernel/user buckets).
	Calls uint64 `json:"calls"`
	// SampledNs is exclusive wall time within sampled slices.
	SampledNs int64 `json:"sampled_ns"`
	// Share is SampledNs over the snapshot's total sampled time.
	Share float64 `json:"share"`
}

// Snapshot is a point-in-time copy of everything the profiler measured.
type Snapshot struct {
	// Events is the number of kernel events dispatched; HeapPushes,
	// HeapPops and CancelPurged count event-heap traffic; MaxHeapDepth is
	// the heap-size watermark.
	Events       uint64 `json:"events"`
	HeapPushes   uint64 `json:"heap_pushes"`
	HeapPops     uint64 `json:"heap_pops"`
	CancelPurged uint64 `json:"cancel_purged"`
	MaxHeapDepth int    `json:"max_heap_depth"`
	// Slices counts host execution slices; SampledSlices of them were
	// timed, accumulating SampledNs of wall time.
	Slices        uint64 `json:"slices"`
	SampledSlices uint64 `json:"sampled_slices"`
	SampledNs     int64  `json:"sampled_ns"`
	// NsPerSlice is the mean sampled wall cost of one execution slice —
	// the sampled estimate of host ns per kernel event.
	NsPerSlice float64 `json:"ns_per_slice"`
	// Shards counts the profilers, one per cluster or replica kernel,
	// merged into this snapshot via Absorb; 0 means a plain single-kernel
	// run.
	Shards int `json:"shards,omitempty"`
	// Subsystems is the per-bucket attribution, largest share first.
	Subsystems []SubsysShare `json:"subsystems"`
}

// Snapshot captures the current totals. Safe on a nil receiver (returns a
// zero snapshot).
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Events: p.events, HeapPushes: p.pushes, HeapPops: p.pops,
		CancelPurged: p.purged, MaxHeapDepth: p.maxDepth,
		Slices: p.slices, SampledSlices: p.sampled, SampledNs: p.sampledNs,
		Shards: p.absorbed,
	}
	if p.sampled > 0 {
		s.NsPerSlice = float64(p.sampledNs) / float64(p.sampled)
	}
	for i := Subsystem(0); i < NumSubsystems; i++ {
		acc := p.subsys[i]
		if acc.calls == 0 && acc.ns == 0 {
			continue
		}
		sh := SubsysShare{Name: i.String(), Calls: acc.calls, SampledNs: acc.ns}
		if p.sampledNs > 0 {
			sh.Share = float64(acc.ns) / float64(p.sampledNs)
		}
		s.Subsystems = append(s.Subsystems, sh)
	}
	sort.Slice(s.Subsystems, func(i, j int) bool {
		if s.Subsystems[i].SampledNs != s.Subsystems[j].SampledNs {
			return s.Subsystems[i].SampledNs > s.Subsystems[j].SampledNs
		}
		return s.Subsystems[i].Name < s.Subsystems[j].Name
	})
	return s
}

// SubsysShares returns name -> share of sampled host time.
func (s Snapshot) SubsysShares() map[string]float64 {
	out := make(map[string]float64, len(s.Subsystems))
	for _, sh := range s.Subsystems {
		out[sh.Name] = sh.Share
	}
	return out
}

// PublishTo writes the snapshot into a metrics registry as host/* gauges,
// so host cost rides along in dumps, JSON snapshots and the live
// OpenMetrics endpoint next to the virtual-time metrics.
func (s Snapshot) PublishTo(reg *metrics.Registry) {
	reg.Gauge("host/events").Set(float64(s.Events))
	reg.Gauge("host/heap_pushes").Set(float64(s.HeapPushes))
	reg.Gauge("host/heap_pops").Set(float64(s.HeapPops))
	reg.Gauge("host/cancel_purged").Set(float64(s.CancelPurged))
	reg.Gauge("host/max_heap_depth").Set(float64(s.MaxHeapDepth))
	reg.Gauge("host/slices").Set(float64(s.Slices))
	reg.Gauge("host/ns_per_event_sampled").Set(s.NsPerSlice)
	if s.Shards > 0 {
		reg.Gauge("host/shards").Set(float64(s.Shards))
	}
	for _, sh := range s.Subsystems {
		reg.Gauge("host/subsys/" + sh.Name + "/share").Set(sh.Share)
	}
}

// String renders a compact report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host: %d events, heap push/pop %d/%d (max depth %d, %d cancels purged)\n",
		s.Events, s.HeapPushes, s.HeapPops, s.MaxHeapDepth, s.CancelPurged)
	fmt.Fprintf(&b, "  sampled %d/%d slices, %.0fns/event\n", s.SampledSlices, s.Slices, s.NsPerSlice)
	if s.Shards > 0 {
		fmt.Fprintf(&b, "  merged from %d shards\n", s.Shards)
	}
	for _, sh := range s.Subsystems {
		fmt.Fprintf(&b, "  %-13s %6.1f%%  (%d frames)\n", sh.Name, 100*sh.Share, sh.Calls)
	}
	return b.String()
}
