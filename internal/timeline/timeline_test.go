package timeline

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

// fakeState drives a recorder by hand: the sampler reads these fields.
type fakeState struct {
	backlog float64 // gauge
	bytes   float64 // cumulative counter
	busy    float64 // cumulative busy ns
}

func (f *fakeState) sample(s *Sample) {
	s.Add("backlog/total", Gauge, f.backlog)
	s.Add("net/bytes", Counter, f.bytes)
	s.Add("copilot/x/utilization", Busy, f.busy)
}

func TestWindowingAndKinds(t *testing.T) {
	f := &fakeState{}
	r := New(100)
	r.SetSampler(f.sample)

	// Window 0: backlog 3, 500 bytes, 50ns busy.
	f.backlog, f.bytes, f.busy = 3, 500, 50
	r.Observe(100) // closes window 0
	// Window 1: backlog drops to 1, 300 more bytes, fully busy.
	f.backlog, f.bytes, f.busy = 1, 800, 150
	r.Observe(250) // closes window 1 (clock inside window 2)
	// Nothing happens until t=730: windows 2..6 close against frozen state.
	r.Observe(730)
	// The final partial window [700, 730) samples the state at Finish.
	f.backlog = 4
	r.Finish(730)

	if got := r.Windows(); got != 8 {
		t.Fatalf("Windows() = %d, want 8", got)
	}
	if r.End() != 730 {
		t.Fatalf("End() = %d, want 730", r.End())
	}

	wantBacklog := []float64{3, 1, 1, 1, 1, 1, 1, 4}
	wantBytes := []float64{500, 300, 0, 0, 0, 0, 0, 0}
	wantBusy := []float64{0.5, 1, 0, 0, 0, 0, 0, 0}
	checkVals(t, r, "backlog/total", wantBacklog)
	checkVals(t, r, "net/bytes", wantBytes)
	checkVals(t, r, "copilot/x/utilization", wantBusy)
}

func checkVals(t *testing.T, r *Recorder, name string, want []float64) {
	t.Helper()
	got, ok := r.Range(name, 0, 0)
	if !ok {
		t.Fatalf("series %q missing", name)
	}
	if len(got) != len(want) {
		t.Fatalf("series %q: %d windows, want %d (%v)", name, len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("series %q window %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestLateSeriesZeroBackfill(t *testing.T) {
	n := 0
	r := New(10)
	r.SetSampler(func(s *Sample) {
		s.Add("always", Gauge, 1)
		if n >= 2 {
			s.Add("late", Gauge, 7)
		}
		n++
	})
	r.Observe(10)
	r.Observe(20)
	r.Observe(30)
	r.Finish(30)
	checkVals(t, r, "late", []float64{0, 0, 7})
	checkVals(t, r, "always", []float64{1, 1, 1})
}

func TestRangeBounds(t *testing.T) {
	f := &fakeState{}
	r := New(100)
	r.SetSampler(f.sample)
	for i := 1; i <= 5; i++ {
		f.backlog = float64(i)
		r.Observe(sim.Time(i) * 100)
	}
	r.Finish(500)
	got, ok := r.Range("backlog/total", 100, 300)
	if !ok || len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Range[100,300) = %v ok=%v, want [2 3]", got, ok)
	}
	if _, ok := r.Range("no/such", 0, 0); ok {
		t.Fatal("Range on unknown series reported ok")
	}
}

func TestRecovery(t *testing.T) {
	vals := []float64{2, 2, 2, 2, 9, 9, 5, 2, 2, 2}
	r := replay(t, vals, 100)
	// Fault at t=390 (window 3). Baseline = mean(2,2,2) = 2, threshold 2.5.
	// Disturbed in window 4, back under threshold in window 7 → recovery
	// ends at t=800, i.e. 410 after the fault.
	d, ok := r.Recovery("s", 390)
	if !ok || d != 410 {
		t.Fatalf("Recovery = %v ok=%v, want 410 true", d, ok)
	}
	// A fault that never disturbs the series recovers immediately.
	quiet := replay(t, []float64{2, 2, 2, 2, 2}, 100)
	if d, ok := quiet.Recovery("s", 150); !ok || d != 0 {
		t.Fatalf("quiet Recovery = %v ok=%v, want 0 true", d, ok)
	}
	// A disturbance that never settles does not recover.
	stuck := replay(t, []float64{1, 1, 8, 8, 8}, 100)
	if _, ok := stuck.Recovery("s", 150); ok {
		t.Fatal("stuck series reported recovered")
	}
	// Beyond the recording: unknown.
	if _, ok := r.Recovery("s", 5_000_000); ok {
		t.Fatal("fault beyond recording reported recovered")
	}
}

// replay builds a recorder whose series "s" holds exactly vals, one per
// window of the given width.
func replay(t *testing.T, vals []float64, window sim.Time) *Recorder {
	t.Helper()
	i := 0
	r := New(window)
	r.SetSampler(func(s *Sample) {
		s.Add("s", Gauge, vals[i])
		i++
	})
	for w := range vals {
		r.Observe(sim.Time(w+1) * window)
	}
	r.Finish(sim.Time(len(vals)) * window)
	return r
}

func TestReportAnalytics(t *testing.T) {
	r := replay(t, []float64{1, 1, 9, 9, 1, 1, 8, 1}, 100)
	r.NoteFault(150, "kill-spe(c2e#0)")
	rep := r.Report()
	if len(rep.Series) != 1 {
		t.Fatalf("series count = %d", len(rep.Series))
	}
	s := rep.Series[0]
	if s.Peak != 9 || s.PeakAt != 200 {
		t.Errorf("peak = %v at %d, want 9 at 200", s.Peak, s.PeakAt)
	}
	if s.Mean != 3.875 {
		t.Errorf("mean = %v, want 3.875", s.Mean)
	}
	if s.Bursts != 2 || s.LongestBurst != 2 {
		t.Errorf("bursts = %d longest %d, want 2/2", s.Bursts, s.LongestBurst)
	}
	if len(rep.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(rep.Faults))
	}
	// No backlog/total series here, so no recovery series is bound.
	if rep.Faults[0].Series != "" {
		t.Errorf("recovery series = %q, want empty", rep.Faults[0].Series)
	}
}

func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	build := func(spike float64) string {
		r := replay(t, []float64{1, 2, spike, 2}, 50)
		r.NoteFault(120, "crash-node(node1)")
		return r.Fingerprint()
	}
	a, b := build(7), build(7)
	if a != b {
		t.Fatalf("same inputs, different fingerprints:\n%s\nvs\n%s", a, b)
	}
	if c := build(8); c == a {
		t.Fatal("different window values, identical fingerprint")
	}
	for _, want := range []string{"timeline window_ns=50", "series s kind=gauge", "fault at_ns=120"} {
		if !strings.Contains(a, want) {
			t.Errorf("fingerprint missing %q:\n%s", want, a)
		}
	}
}

func TestTruncation(t *testing.T) {
	r := New(1)
	r.SetSampler(func(s *Sample) { s.Add("s", Gauge, 1) })
	r.Observe(sim.Time(MaxWindows) + 100)
	r.Finish(sim.Time(MaxWindows) + 100)
	if !r.Truncated() {
		t.Fatal("recorder not truncated")
	}
	if r.Windows() != MaxWindows {
		t.Fatalf("Windows() = %d, want %d", r.Windows(), MaxWindows)
	}
}

func TestPointsSortedAndStamped(t *testing.T) {
	r := New(10)
	r.SetSampler(func(s *Sample) {
		s.Add("b", Gauge, 2)
		s.Add("a", Gauge, 1)
	})
	r.Observe(10)
	r.Observe(20)
	r.Finish(25)
	pts := r.Points()
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	if pts[0].Series != "a" || pts[0].At != 10 || pts[1].Series != "b" {
		t.Errorf("first window points out of order: %+v", pts[:2])
	}
	if last := pts[len(pts)-1]; last.At != 25 {
		t.Errorf("final partial window stamped at %d, want 25", last.At)
	}
}

func TestSparkline(t *testing.T) {
	if got := Spark([]float64{0, 1, 2, 4}, 4); got != "·▂▄█" {
		t.Errorf("Spark = %q, want ·▂▄█", got)
	}
	// Downsampling keeps spikes: max per bucket.
	if got := Spark([]float64{0, 0, 9, 0, 0, 0, 0, 0}, 4); got != "·█··" {
		t.Errorf("Spark downsample = %q, want ·█··", got)
	}
	if Spark(nil, 10) != "" {
		t.Error("Spark(nil) not empty")
	}
}

func TestReportStringAndJSON(t *testing.T) {
	r := replay(t, []float64{1, 5, 1}, 100)
	r.NoteFault(50, "kill-copilot(node0/cell1)")
	rep := r.Report()
	out := rep.String()
	for _, want := range []string{"3 windows", "series", "peak", "kill-copilot"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["windows"].(float64) != 3 {
		t.Errorf("json windows = %v", decoded["windows"])
	}
	again, _ := json.Marshal(r)
	if string(again) != string(data) {
		t.Error("MarshalJSON not deterministic")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Observe(100)
	r.Finish(100)
	r.NoteFault(1, "x")
}

// Busy windows are not clamped: an overlapping-span series can exceed 1,
// and counters sampled alongside pass through untouched.
func TestBusyClamp(t *testing.T) {
	busy := 0.0
	r := New(100)
	r.SetSampler(func(s *Sample) {
		s.Add("copilot/x/utilization", Busy, busy)
		s.Add("net/bytes", Counter, busy)
	})
	busy = 150 // 150ns of busy in a 100ns window: ratio 1.5
	r.Observe(100)
	busy = 200 // 50ns more: ratio 0.5
	r.Finish(200)
	checkVals(t, r, "copilot/x/utilization", []float64{1.5, 0.5})
	checkVals(t, r, "net/bytes", []float64{150, 50})
}

// TestZeroSeriesHoldCount: a series that never leaves zero holds only a
// count, its one open run, and one that appears mid-run starts with a run
// of zeros; every reader still sees each window's value with its exact
// bits.
func TestZeroSeriesHoldCount(t *testing.T) {
	negZero := math.Copysign(0, -1)
	script := map[string][]float64{
		"quiet":   {0, 0, 0, 0, 0, 0, 0, 0},
		"late":    {0, 0, 0, 0, 0, 6, 6, 7}, // first sampled in window 5
		"negzero": {negZero, 0, 2, 0, 0, 0, 0, 0},
		"wave":    {0, 0, 3, 0, 5, 0, 0, 0},
	}
	w := 0
	r := New(10)
	r.SetSampler(func(s *Sample) {
		for name, vals := range script {
			if name != "late" || w >= 5 {
				s.Add(name, Gauge, vals[w])
			}
		}
		w++
	})
	for i := 1; i <= 8; i++ {
		r.Observe(sim.Time(i) * 10)
	}
	r.Finish(80)
	if s := r.series["quiet"]; s.chunks != nil || s.bits != 0 || s.run != 8 {
		t.Fatalf("all-zero series holds %d chunks and an open run of %d × %#x, want none and 8 × 0", len(s.chunks), s.run, s.bits)
	}
	points := map[string][]float64{}
	for _, p := range r.Points() {
		points[p.Series] = append(points[p.Series], p.Value)
	}
	report := map[string][]float64{}
	for _, st := range r.Report().Series {
		report[st.Name] = st.Values
	}
	fp := r.Fingerprint()
	for name, want := range script {
		got, _ := r.Range(name, 0, 0)
		for reader, vals := range map[string][]float64{"Range": got, "Points": points[name], "Report": report[name]} {
			checkBits(t, reader+"("+name+")", vals, want)
		}
		if line := fmt.Sprintf("series %s kind=gauge", name); !strings.Contains(fp, line) ||
			!strings.Contains(fp, fmt.Sprintf("vals=%016x", valsHash(want))) {
			t.Errorf("fingerprint does not bind %q's values:\n%s", name, fp)
		}
	}
}

// checkBits fails unless got holds want's values with their exact bits.
func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d windows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s window %d = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSeriesBlocksKeepEveryValue: runs stored across several chunks, after
// leading zeros, read back with their exact bits, whether kept as varints
// or raw, and no chunk is ever regrown: each keeps the capacity it was
// allocated with.
func TestSeriesBlocksKeepEveryValue(t *testing.T) {
	s := series{n: 3, run: 3} // three leading zeros, as for a series first sampled in window 3
	want := make([]float64, 3, 3000)
	odd := []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 2, -(1 << 53), 1<<53 - 1, -(1<<53 - 1), math.SmallestNonzeroFloat64, 0.5, -3, 1e300,
	}
	for i := 0; len(want) < 2900; i++ {
		v := float64(i%7) + float64(i/7%3)*0.25
		if i%5 == 0 {
			v = odd[i/5%len(odd)]
		}
		for k := 0; k <= i%4*(i%11); k++ {
			s.add(v)
			want = append(want, v)
		}
	}
	if len(s.chunks) < 4 {
		t.Fatalf("runs fit in %d chunks; want a test across several", len(s.chunks))
	}
	for i, c := range s.chunks {
		if want := 64 << min(i, 6); cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, allocated with %d", i, cap(c), want)
		}
	}
	checkBits(t, "values", s.values(), want)
}

// TestSeriesStorageBudget: small-integer counters and gauges, as the
// runtime's backlog, mailbox and fault series read, cost at most 2 bytes
// per window-value over 10,000 windows, everything the recording
// allocates included; stored as float64s they took 8.
func TestSeriesStorageBudget(t *testing.T) {
	const windows = 10_000
	rng := rand.New(rand.NewSource(5))
	var faults, msgs, backlog, inflight float64
	r := New(10)
	r.SetSampler(func(s *Sample) {
		if rng.Intn(50) == 0 {
			faults++
		}
		msgs += float64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			backlog = max(0, min(40, backlog+float64(2*rng.Intn(2)-1)))
		}
		inflight = float64(rng.Intn(8))
		s.Add("fault/total", Counter, faults)
		s.Add("net/msgs", Counter, msgs)
		s.Add("backlog/total", Gauge, backlog)
		s.Add("copilot/inflight", Gauge, inflight)
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r.Observe(windows * 10)
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(windows*len(r.names))
	if r.Windows() != windows || len(r.names) != 4 {
		t.Fatalf("%d windows of %d series, want %d of 4", r.Windows(), len(r.names), windows)
	}
	if per > 2 {
		t.Errorf("series cost %.2f bytes per window-value, want at most 2", per)
	}
}

// FuzzSeriesRoundTrip feeds a gauge arbitrary float64 bits, in runs, and
// requires values and Points to return every bit.
func FuzzSeriesRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 3, 1, 5, 2, 9, 3, 250, 4, 200, 5, 7})
	f.Add([]byte{1, 0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0x7f, 2, 6, 255, 7, 1, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		take := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		raw := func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				v |= uint64(take()) << (8 * i)
			}
			return v
		}
		var want []float64
		for len(data) > 0 && len(want) < 4000 {
			var v float64
			switch sel := take(); sel % 10 {
			case 0:
				v = math.Float64frombits(raw())
			case 1:
				v = math.Float64frombits(0x7ff0_0000_0000_0000 | raw()) // NaN payloads, ±Inf
			case 2:
				v = math.Copysign(0, -1)
			case 3:
				v = float64(int8(take()))
			case 4:
				v = 1<<53 + float64(int8(take())) // integers around 2^53
			case 5:
				v = -(1 << 53) - float64(int8(take()))
			case 6:
				v = math.Float64frombits(raw() & 0x800f_ffff_ffff_ffff) // subnormals
			case 7:
				v = float64(int64(raw()) >> (take() % 64))
			default:
				v = math.Inf(int(sel%2)*2 - 1)
			}
			n := 1 + int(take()%8)
			if n == 8 {
				n = 1 + int(take())*3 // long runs
			}
			for ; n > 0; n-- {
				want = append(want, v)
			}
		}
		if len(want) == 0 {
			return
		}
		w := 0
		r := New(10)
		r.SetSampler(func(s *Sample) {
			s.Add("s", Gauge, want[w])
			w++
		})
		r.Finish(sim.Time(len(want)) * 10)
		checkBits(t, "values", r.series["s"].values(), want)
		pts := r.Points()
		got := make([]float64, len(pts))
		for i, p := range pts {
			got[i] = p.Value
		}
		checkBits(t, "Points", got, want)
	})
}
