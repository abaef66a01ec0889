// Package timeline records virtual-time-bucketed telemetry series for one
// simulation run. A Recorder is attached to the kernel's clock hook; every
// time the virtual clock crosses a window boundary it invokes a sampler
// callback that reads live runtime state (Co-Pilot busy time, link
// saturation, channel backlog, fault counters, ...) and appends one value
// per series per window. The result is a deterministic time series — same
// seed, same windows, byte for byte — plus derived analytics: peak, mean,
// p95, burst runs, and per-fault recovery time.
//
// The recorder follows the repo's zero-virtual-cost contract: it only ever
// observes. It never schedules events, so attaching one cannot perturb the
// virtual timeline or the chaos determinism fingerprints.
//
// Windowing model: window w spans virtual time [w·W, (w+1)·W). The clock
// hook fires after the clock advances to an event's timestamp but before
// the event dispatches, so a window is closed (sampled) the first time the
// clock reaches or passes its right edge — i.e. with exactly the state
// produced by every event strictly inside the window. When the clock jumps
// several windows at once the intermediate windows close against unchanged
// state: gauges repeat, counter and busy deltas are zero. Cumulative
// quantities (counters, busy time) are attributed to the window in which
// the accruing event fires, which matches the end-of-run aggregates.
package timeline

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cellpilot/internal/sim"
)

// Kind classifies how a sampled raw value becomes a per-window value.
type Kind int

const (
	// Gauge is an instantaneous value: the window holds the reading at
	// window close (e.g. backlog depth, mailbox high-water).
	Gauge Kind = iota
	// Counter is a cumulative count: the window holds the delta since the
	// previous window (e.g. bytes moved, faults injected).
	Counter
	// Busy is cumulative busy time in virtual nanoseconds: the window
	// holds delta ÷ window width — a utilization ratio. Busy time lands
	// in the window whose events accrued it, so a long service slice
	// completing in one window can push that window's ratio above 1.
	Busy
)

func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	case Busy:
		return "busy"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DefaultWindow is the bucket width used when New is given zero: wide
// enough that a millisecond-scale chaos run stays in the hundreds of
// windows, fine enough to see a fault's backlog spike build and drain.
const DefaultWindow = 100 * sim.Microsecond

// MaxWindows caps the recording; a run that outlives the cap keeps its
// prefix and sets Truncated rather than growing without bound.
const MaxWindows = 1 << 16

// recoveryTolerance is the fraction above the pre-fault baseline a series
// may sit and still count as recovered.
const recoveryTolerance = 0.25

// Sample collects one window's readings. The sampler calls Add once per
// series; series it skips this window record zero.
type Sample struct {
	names []string
	kinds []Kind
	raws  []float64
}

// Add records one raw reading. For Counter and Busy the raw value is the
// cumulative total; the recorder differentiates it into window deltas.
func (s *Sample) Add(name string, kind Kind, raw float64) {
	s.names = append(s.names, name)
	s.kinds = append(s.kinds, kind)
	s.raws = append(s.raws, raw)
}

func (s *Sample) reset() {
	s.names = s.names[:0]
	s.kinds = s.kinds[:0]
	s.raws = s.raws[:0]
}

// FaultMark is one injected fault noted on the timeline.
type FaultMark struct {
	At    sim.Time
	Label string
}

// series holds one series' window values as runs of equal bits: the
// closed runs encoded in byte chunks, and the open run, the latest
// value's bits and how many windows in a row have read them. A series that
// is zero throughout a run holds one open run, and one that appears
// mid-run starts with a run of zeros for the windows before it.
//
// A closed run is a varint, its length doubled plus one when the value
// follows as its 8 raw bytes, then the value. An integer-valued value
// below 2^53 in magnitude, other than −0, follows as a zigzag varint
// instead: every count and most gauges take a byte or two. Chunks start at
// 64 bytes and double up to 4 KiB; one is allocated when the last might
// not hold the next run, and none is ever copied.
type series struct {
	name   string
	kind   Kind
	last   float64 // previous cumulative raw (Counter/Busy differentiation)
	gen    int     // last window generation this series was sampled in
	n      int     // windows held
	bits   uint64  // the open run's value
	run    int     // the open run's length
	chunks [][]byte
}

// maxRunLen is the longest encoded run: a length of up to MaxWindows,
// doubled, in 3 bytes, and 8 raw bytes.
const maxRunLen = 3 + 8

// add appends one window's value.
func (s *series) add(v float64) {
	if b := math.Float64bits(v); b != s.bits {
		if s.run > 0 {
			s.closeRun()
		}
		s.bits, s.run = b, 0
	}
	s.run++
	s.n++
}

// closeRun encodes the open run into the last chunk.
func (s *series) closeRun() {
	k := len(s.chunks)
	if k == 0 || cap(s.chunks[k-1])-len(s.chunks[k-1]) < maxRunLen {
		s.chunks = append(s.chunks, make([]byte, 0, 64<<min(k, 6)))
		k++
	}
	b := s.chunks[k-1]
	if v := math.Float64frombits(s.bits); math.Abs(v) < 1<<53 && v == math.Trunc(v) && s.bits != negZero {
		b = binary.AppendUvarint(b, uint64(s.run)<<1)
		b = binary.AppendVarint(b, int64(v))
	} else {
		b = binary.AppendUvarint(b, uint64(s.run)<<1|1)
		b = binary.LittleEndian.AppendUint64(b, s.bits)
	}
	s.chunks[k-1] = b
}

// negZero is −0's bits.
const negZero = 1 << 63

// values returns every window's value, in a new slice (nil before the
// first window).
func (s *series) values() []float64 {
	if s.n == 0 {
		return nil
	}
	out := make([]float64, 0, s.n)
	for _, b := range s.chunks {
		for len(b) > 0 {
			head, k := binary.Uvarint(b)
			b = b[k:]
			var v float64
			if head&1 == 1 {
				v = math.Float64frombits(binary.LittleEndian.Uint64(b))
				b = b[8:]
			} else {
				i, k := binary.Varint(b)
				v, b = float64(i), b[k:]
			}
			out = appendRun(out, v, int(head>>1))
		}
	}
	return appendRun(out, math.Float64frombits(s.bits), s.run)
}

func appendRun(out []float64, v float64, n int) []float64 {
	for ; n > 0; n-- {
		out = append(out, v)
	}
	return out
}

// Recorder accumulates windowed series. The zero value is not usable; use
// New. All methods are single-goroutine, matching the kernel's event loop.
type Recorder struct {
	window    sim.Time
	sampler   func(*Sample)
	series    map[string]*series
	names     []string // sorted; the deterministic iteration order
	closed    int      // windows closed so far
	gen       int      // window generation counter
	end       sim.Time // final clock reading, set by Finish
	finished  bool
	truncated bool
	faults    []FaultMark
	scratch   Sample
}

// New builds a recorder with the given window width; width <= 0 selects
// DefaultWindow.
func New(window sim.Time) *Recorder {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Recorder{window: window, series: map[string]*series{}}
}

// SetSampler installs the callback that reads live runtime state into a
// Sample at every window close. The runtime installs this when the
// recorder is attached; replacing it mid-run starts differentiating
// cumulative kinds from each series' last seen raw value.
func (r *Recorder) SetSampler(fn func(*Sample)) { r.sampler = fn }

// Observe is the kernel clock hook: it closes every window whose right
// edge the clock has reached. Nil-receiver safe so callers can hold an
// optional recorder without guarding.
func (r *Recorder) Observe(now sim.Time) {
	if r == nil || r.finished || r.truncated {
		return
	}
	for sim.Time(r.closed+1)*r.window <= now {
		if r.closed >= MaxWindows {
			r.truncated = true
			return
		}
		r.closeWindow(r.window)
	}
}

// Finish closes the trailing partial window at the run's final clock
// reading and freezes the recorder. Idempotent.
func (r *Recorder) Finish(now sim.Time) {
	if r == nil || r.finished {
		return
	}
	r.Observe(now)
	start := sim.Time(r.closed) * r.window
	if !r.truncated && now > start && r.closed < MaxWindows {
		r.closeWindow(now - start)
	}
	r.end = now
	r.finished = true
}

// NoteFault marks an injected fault on the timeline; recovery analytics
// measure from these marks. Nil-receiver safe.
func (r *Recorder) NoteFault(at sim.Time, label string) {
	if r == nil {
		return
	}
	r.faults = append(r.faults, FaultMark{At: at, Label: label})
}

// closeWindow samples once and appends one value to every series.
func (r *Recorder) closeWindow(width sim.Time) {
	r.gen++
	r.scratch.reset()
	if r.sampler != nil {
		r.sampler(&r.scratch)
	}
	for i, name := range r.scratch.names {
		s := r.series[name]
		if s == nil {
			// Series appearing mid-run read zero for every window closed
			// before their first sample.
			s = &series{name: name, kind: r.scratch.kinds[i], n: r.closed, run: r.closed}
			r.series[name] = s
			at := sort.SearchStrings(r.names, name)
			r.names = append(r.names, "")
			copy(r.names[at+1:], r.names[at:])
			r.names[at] = name
		}
		if s.gen == r.gen {
			continue // duplicate Add in one sample: first wins
		}
		s.gen = r.gen
		raw := r.scratch.raws[i]
		var v float64
		switch s.kind {
		case Counter:
			v = raw - s.last
			s.last = raw
		case Busy:
			v = (raw - s.last) / float64(width)
			s.last = raw
		default:
			v = raw
		}
		s.add(v)
	}
	// Series the sampler skipped this window record zero.
	for _, name := range r.names {
		if s := r.series[name]; s.gen != r.gen {
			s.gen = r.gen
			s.add(0)
		}
	}
	r.closed++
}

// Window returns the bucket width.
func (r *Recorder) Window() sim.Time { return r.window }

// Windows returns the number of closed windows (including the final
// partial one after Finish).
func (r *Recorder) Windows() int { return r.closed }

// End returns the final clock reading captured by Finish.
func (r *Recorder) End() sim.Time { return r.end }

// Truncated reports whether the run outlived MaxWindows.
func (r *Recorder) Truncated() bool { return r.truncated }

// Faults returns the noted fault marks in injection order.
func (r *Recorder) Faults() []FaultMark { return r.faults }

// SeriesNames returns the recorded series names, sorted.
func (r *Recorder) SeriesNames() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// windowStart and windowEnd bound window w in virtual time. Only the last
// window can be partial, ending at the Finish clock reading.
func (r *Recorder) windowStart(w int) sim.Time { return sim.Time(w) * r.window }

func (r *Recorder) windowEnd(w int) sim.Time {
	e := sim.Time(w+1) * r.window
	if r.finished && w == r.closed-1 && r.end > r.windowStart(w) && r.end < e {
		return r.end
	}
	return e
}

// Range returns the window values of one series over virtual time
// [from, to); to <= 0 means the end of the run. The second result is
// false when the series does not exist.
func (r *Recorder) Range(name string, from, to sim.Time) ([]float64, bool) {
	s := r.series[name]
	if s == nil {
		return nil, false
	}
	lo := 0
	if from > 0 {
		lo = int(from / r.window)
	}
	vals := s.values()
	hi := len(vals)
	if to > 0 {
		h := int((to + r.window - 1) / r.window)
		if h < hi {
			hi = h
		}
	}
	if lo >= hi {
		return nil, true
	}
	return vals[lo:hi], true
}

// Recovery measures how long one series took to settle after a fault at
// the given time: the baseline is the series' mean over the windows fully
// before the fault; the series is disturbed when it exceeds baseline plus
// 25%, and recovered at the end of the first subsequent window back at or
// below that threshold. A fault that never disturbs the series recovers
// in zero time; a disturbance that never settles returns false.
func (r *Recorder) Recovery(name string, at sim.Time) (sim.Time, bool) {
	s := r.series[name]
	if s == nil {
		return 0, false
	}
	vals := s.values()
	if len(vals) == 0 {
		return 0, false
	}
	fw := int(at / r.window)
	if fw < 0 {
		fw = 0
	}
	if fw >= len(vals) {
		return 0, false
	}
	base := 0.0
	if fw > 0 {
		base = mean(vals[:fw])
	}
	thresh := base + math.Max(recoveryTolerance*base, 1e-9)
	disturbed := false
	for w := fw; w < len(vals); w++ {
		switch {
		case !disturbed && vals[w] > thresh:
			disturbed = true
		case disturbed && vals[w] <= thresh:
			d := r.windowEnd(w) - at
			if d < 0 {
				d = 0
			}
			return d, true
		}
	}
	if !disturbed {
		return 0, true
	}
	return 0, false
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// burstFactor: a window is bursting when its value is at least this
// multiple of the series mean (and positive).
const burstFactor = 2.0

// SeriesStats is one series' derived analytics plus its raw windows.
type SeriesStats struct {
	Name         string    `json:"name"`
	Kind         string    `json:"kind"`
	Peak         float64   `json:"peak"`
	PeakAt       sim.Time  `json:"peak_at_ns"` // start of the peak window
	Mean         float64   `json:"mean"`
	P95          float64   `json:"p95"`
	Bursts       int       `json:"bursts"`
	LongestBurst int       `json:"longest_burst"` // windows
	Values       []float64 `json:"values"`
}

// FaultRecovery is one fault mark with its recovery measurement against
// the report's recovery series.
type FaultRecovery struct {
	At        sim.Time `json:"at_ns"`
	Label     string   `json:"label"`
	Series    string   `json:"series"`
	Recovered bool     `json:"recovered"`
	Recovery  sim.Time `json:"recovery_ns"`
}

// Report is the exported timeline: windowing parameters, per-series
// analytics, and per-fault recovery. Field order is the JSON order, so
// marshalling is deterministic.
type Report struct {
	Window    sim.Time        `json:"window_ns"`
	Windows   int             `json:"windows"`
	End       sim.Time        `json:"end_ns"`
	Truncated bool            `json:"truncated,omitempty"`
	Series    []SeriesStats   `json:"series"`
	Faults    []FaultRecovery `json:"faults,omitempty"`
}

// DefaultRecoverySeries is the series Report measures fault recovery
// against when present.
const DefaultRecoverySeries = "backlog/total"

// Report derives the analytics. Call after Finish.
func (r *Recorder) Report() *Report {
	rep := &Report{Window: r.window, Windows: r.closed, End: r.end, Truncated: r.truncated}
	for _, name := range r.names {
		rep.Series = append(rep.Series, r.seriesStats(r.series[name]))
	}
	recSeries := DefaultRecoverySeries
	if r.series[recSeries] == nil {
		recSeries = ""
	}
	for _, f := range r.faults {
		fr := FaultRecovery{At: f.At, Label: f.Label, Series: recSeries}
		if recSeries != "" {
			fr.Recovery, fr.Recovered = r.Recovery(recSeries, f.At)
		}
		rep.Faults = append(rep.Faults, fr)
	}
	return rep
}

func (r *Recorder) seriesStats(s *series) SeriesStats {
	vals := s.values()
	st := SeriesStats{Name: s.name, Kind: s.kind.String(), Values: vals}
	if len(vals) == 0 {
		return st
	}
	peakW := 0
	for w, v := range vals {
		if v > vals[peakW] {
			peakW = w
		}
	}
	st.Peak = vals[peakW]
	st.PeakAt = r.windowStart(peakW)
	st.Mean = mean(vals)
	st.P95 = p95(vals)
	st.Bursts, st.LongestBurst = bursts(vals, st.Mean)
	return st
}

func p95(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// bursts counts maximal runs of consecutive windows at or above
// burstFactor times the mean (and positive), and the longest such run.
func bursts(vals []float64, mean float64) (count, longest int) {
	thresh := burstFactor * mean
	run := 0
	for _, v := range vals {
		if v > 0 && v >= thresh && thresh > 0 {
			run++
			if run == 1 {
				count++
			}
			if run > longest {
				longest = run
			}
		} else {
			run = 0
		}
	}
	return count, longest
}

// Point is one chrome-trace counter sample: a series' window value
// stamped at the window's end.
type Point struct {
	At     sim.Time
	Series string
	Value  float64
}

// Points flattens the timeline for the Chrome-trace counter-event
// exporter, sorted by (time, series). Each series is decoded once.
func (r *Recorder) Points() []Point {
	if r.closed == 0 || len(r.names) == 0 {
		return nil
	}
	vals := make([][]float64, len(r.names))
	for i, name := range r.names {
		vals[i] = r.series[name].values()
	}
	out := make([]Point, 0, r.closed*len(r.names))
	for w := 0; w < r.closed; w++ {
		at := r.windowEnd(w)
		for i, name := range r.names {
			out = append(out, Point{At: at, Series: name, Value: vals[i][w]})
		}
	}
	return out
}

// fnum renders a float deterministically for fingerprints and tables.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// Fingerprint renders the timeline into the canonical byte form used by
// determinism checks: windowing header, one analytics line per series
// (with a hash binding every window value), one line per fault mark.
func (r *Recorder) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline window_ns=%d windows=%d end_ns=%d truncated=%t\n",
		r.window, r.closed, r.end, r.truncated)
	for _, name := range r.names {
		s := r.series[name]
		st := r.seriesStats(s)
		fmt.Fprintf(&b, "series %s kind=%s peak=%s peak_at_ns=%d mean=%s p95=%s bursts=%d vals=%016x\n",
			name, s.kind, fnum(st.Peak), st.PeakAt, fnum(st.Mean), fnum(st.P95), st.Bursts, valsHash(st.Values))
	}
	for _, f := range r.faults {
		fmt.Fprintf(&b, "fault at_ns=%d label=%q\n", f.At, f.Label)
	}
	return b.String()
}

// valsHash is FNV-1a over the IEEE-754 bits of every window value: two
// timelines fingerprint equal only when every window matches bit for bit.
func valsHash(vals []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range vals {
		bits := math.Float64bits(v)
		for shift := 0; shift < 64; shift += 8 {
			h ^= (bits >> shift) & 0xff
			h *= prime
		}
	}
	return h
}

// MarshalJSON exports the derived Report.
func (r *Recorder) MarshalJSON() ([]byte, error) { return json.Marshal(r.Report()) }
