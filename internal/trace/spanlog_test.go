package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"cellpilot/internal/sim"
)

// oracleLog is the span log as it was kept before its records were made
// compact: every event and phase event whole, in slices grown by append,
// and Spans grouping through a map. The differential tests below hold the
// Recorder to it.
type oracleLog struct {
	limit, dropped, phasesDropped int
	events                        []Event
	phases                        []PhaseEvent
}

func (o *oracleLog) Record(ev Event) {
	if o.limit > 0 && len(o.events) >= o.limit {
		o.dropped++
		return
	}
	o.events = append(o.events, ev)
}

func (o *oracleLog) RecordPhase(pe PhaseEvent) {
	if o.limit > 0 && len(o.phases) >= o.limit {
		o.phasesDropped++
		return
	}
	o.phases = append(o.phases, pe)
}

// MaxXfer scans every stored event and phase for the highest transfer id.
func (o *oracleLog) MaxXfer() int64 {
	var id int64
	for _, ev := range o.events {
		id = max(id, ev.Xfer)
	}
	for _, pe := range o.phases {
		id = max(id, pe.Xfer)
	}
	return id
}

func (o *oracleLog) Spans() []Span {
	byID := map[int64]*Span{}
	for _, pe := range o.phases {
		if pe.Xfer == 0 {
			continue
		}
		sp, ok := byID[pe.Xfer]
		if !ok {
			sp = &Span{
				ID: pe.Xfer, Channel: pe.Channel, ChanType: pe.ChanType,
				Bytes: pe.Bytes, Start: pe.Start, End: pe.End,
			}
			byID[pe.Xfer] = sp
		}
		if pe.Start < sp.Start {
			sp.Start = pe.Start
		}
		if pe.End > sp.End {
			sp.End = pe.End
		}
		if pe.Bytes > sp.Bytes {
			sp.Bytes = pe.Bytes
		}
		sp.Phases = append(sp.Phases, pe)
	}
	out := make([]Span, 0, len(byID))
	for _, sp := range byID {
		sort.Slice(sp.Phases, func(i, j int) bool {
			a, b := sp.Phases[i], sp.Phases[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Phase < b.Phase
		})
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// logShape sets what genLog generates.
type logShape struct {
	apps    int   // Apps recording in turn, each numbering transfers from 1
	xfers   int   // transfers per App
	idScale int64 // transfer id = idScale * App-local number (1 = dense)
	limit   int
}

// genLog records a generated log into the recorder and the oracle alike:
// per transfer, primary phases on the writer, a Co-Pilot and the reader,
// some chunked with frame and DMA annotations; untagged phases between
// transfers; start times on a coarse grid so many are equal; phases
// recorded out of start order and interleaved with the next transfer. Each
// App numbers its own tracks and, like core, records through AddPhase and
// AddEvent with labels interned once; a third of the phases go through
// RecordPhase by name instead.
func genLog(t *testing.T, seed int64, sh logShape, r *Recorder, o *oracleLog) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := func() sim.Time { return sim.Time(rng.Intn(40)) * sim.Microsecond }
	for app := 0; app < sh.apps; app++ {
		// Each App reads MaxXfer when it starts, as core does to number
		// its transfers.
		if got, want := r.MaxXfer(), o.MaxXfer(); got != want {
			t.Fatalf("App %d starts at MaxXfer %d, oracle's scan %d", app, got, want)
		}
		// Apps share some track names and differ in others.
		names := []string{"PI_MAIN(rank0@node0)", fmt.Sprintf("w%d(rank1@node1)", app),
			"copilot@cell0", fmt.Sprintf("spe%d#0(spe@node0)", app%2)}
		lbls := make([]Label, len(names))
		for i, n := range names {
			lbls[i] = r.Intern(n)
		}
		phase := func(who int, pe PhaseEvent) {
			pe.Proc = names[who]
			if pe.Chunk > 0 {
				pe.Stream = pe.Xfer
			}
			o.RecordPhase(pe)
			if rng.Intn(3) == 0 {
				r.RecordPhase(pe)
			} else {
				pe.Proc, pe.Stream = "", 0
				r.AddPhase(lbls[who], pe)
			}
		}
		event := func(who int, ev Event) {
			ev.Proc = names[who]
			o.Record(ev)
			if rng.Intn(3) == 0 {
				r.Record(ev)
			} else {
				ev.Proc = ""
				r.AddEvent(lbls[who], ev)
			}
		}
		var held []func()
		for x := 1; x <= sh.xfers; x++ {
			id := int64(x) * sh.idScale
			ch, typ, bytes := rng.Intn(10), 1+rng.Intn(5), 1+rng.Intn(1<<16)
			base := grid()
			mk := func(k PhaseKind, start, end sim.Time, chunk int) PhaseEvent {
				return PhaseEvent{Xfer: id, Phase: k, Channel: ch, ChanType: typ, Bytes: bytes + rng.Intn(3),
					Start: base + start, End: base + end, Chunk: chunk}
			}
			steps := []func(){
				func() { phase(0, mk(PhasePack, 0, grid(), 0)) },
				func() { phase(3, mk(PhaseMailboxReq, grid(), grid(), 0)) },
				func() { phase(2, mk(PhaseCoPilotService, grid(), 50*sim.Microsecond, 0)) },
				func() { phase(1, mk(PhaseMPIWait, 0, grid(), 0)) },
				func() { event(0, Event{At: base, Kind: KindWrite, Channel: ch, Bytes: bytes, Xfer: id}) },
			}
			if rng.Intn(3) == 0 {
				for k := 1; k <= 1+rng.Intn(4); k++ {
					k := k
					steps = append(steps,
						func() { phase(2, mk(PhaseChunkFrame, grid(), grid(), k)) },
						func() { phase(1, mk(PhaseChunkFrame, grid(), grid(), k)) },
						func() { phase(3, mk(PhaseChunkDMA, grid(), grid(), k)) })
				}
			}
			rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
			// Hold back part of this transfer until after the next one.
			cut := rng.Intn(len(steps) + 1)
			for _, s := range held {
				s()
			}
			for _, s := range steps[:cut] {
				s()
			}
			held = steps[cut:]
			if rng.Intn(4) == 0 {
				phase(rng.Intn(len(names)), PhaseEvent{Phase: PhasePack, Start: grid(), End: grid()})
			}
		}
		for _, s := range held {
			s()
		}
	}
}

func checkAgainstOracle(t *testing.T, r *Recorder, o *oracleLog) {
	t.Helper()
	if got, want := r.Phases(), o.phases; !reflect.DeepEqual(got, want) {
		t.Fatalf("Phases differ: %d phases, oracle %d", len(got), len(want))
	}
	if got, want := r.Events(), o.events; !reflect.DeepEqual(got, want) {
		t.Fatalf("Events differ: %d events, oracle %d", len(got), len(want))
	}
	if r.PhasesDropped() != o.phasesDropped || r.Dropped() != o.dropped {
		t.Fatalf("dropped phases %d events %d, oracle %d and %d",
			r.PhasesDropped(), r.Dropped(), o.phasesDropped, o.dropped)
	}
	if got, want := r.MaxXfer(), o.MaxXfer(); got != want {
		t.Fatalf("MaxXfer %d, oracle's scan %d", got, want)
	}
	got, want := r.Spans(), o.Spans()
	if len(got) != len(want) {
		t.Fatalf("Spans: %d spans, oracle %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("span %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestSpanLogMatchesOracle(t *testing.T) {
	shapes := map[string]logShape{
		"one app":           {apps: 1, xfers: 300, idScale: 1},
		"two apps":          {apps: 2, xfers: 300, idScale: 1},
		"three apps, limit": {apps: 3, xfers: 400, idScale: 1, limit: 1500},
		"sparse ids":        {apps: 2, xfers: 200, idScale: 1_000_003},
		"more than a block": {apps: 1, xfers: 2000, idScale: 1},
	}
	for name, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				r, o := NewRecorder(sh.limit), &oracleLog{limit: sh.limit}
				genLog(t, seed, sh, r, o)
				checkAgainstOracle(t, r, o)
			})
		}
	}
}

func TestSpansShareBackingCapped(t *testing.T) {
	r := NewRecorder(0)
	for x := int64(1); x <= 3; x++ {
		for k := 0; k < 2; k++ {
			r.RecordPhase(PhaseEvent{Xfer: x, Phase: PhaseKind(k), Proc: "p", Start: sim.Time(x)})
		}
	}
	spans := r.Spans()
	before := spans[1].Phases[0]
	spans[0].Phases = append(spans[0].Phases, PhaseEvent{Xfer: 99})
	if spans[1].Phases[0] != before {
		t.Fatal("appending to one span's phases overwrote the next span's")
	}
}

func TestFlightTailMatchesRecordingAcrossWrap(t *testing.T) {
	const depth = 5
	names := []string{"p0", "p1", "p2"}
	f := NewFlight(depth)
	f.SetNames(names)
	var all []PhaseEvent
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 3*depth+2; i++ {
		track := rng.Intn(len(names))
		pe := PhaseEvent{Xfer: int64(i), Phase: PhaseChunkFrame, Proc: names[track],
			Channel: i % 4, ChanType: 1 + i%5, Bytes: 100 * i, Start: sim.Time(i), End: sim.Time(2 * i)}
		if i%2 == 0 {
			pe.Chunk, pe.Stream = i/2, int64(i)
		} else {
			pe.Phase = PhaseRelay
		}
		f.Add(Label(track), pe)
		all = append(all, pe)
		for _, n := range []int{0, 1, 3, depth, depth + 1} {
			kept := min(i, depth)
			want := all[len(all)-kept:]
			if n > 0 && n < kept {
				want = all[len(all)-n:]
			}
			if got := f.Tail(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d records Tail(%d) = %+v, want %+v", i, n, got, want)
			}
			lines := f.TailLines(n)
			if len(lines) != len(want) {
				t.Fatalf("after %d records TailLines(%d) has %d lines, want %d", i, n, len(lines), len(want))
			}
			for j, pe := range want {
				if !strings.Contains(lines[j], pe.Proc) || !strings.Contains(lines[j], fmt.Sprintf("xfer=%-5d", pe.Xfer)) {
					t.Fatalf("line %q does not render %+v", lines[j], pe)
				}
			}
		}
	}
}

func TestRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(phaseRec{}); s > 40 {
		t.Errorf("the flight ring's phase slot is %d bytes, want at most 40", s)
	}
}

// allocBytes reports the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

var sinkRecorder *Recorder
var sinkFlight *Flight
var sinkSpans []Span

// Spans allocates its decoded phases and its spans, each once, so its
// allocation count does not grow with the number of transfers; a sort by
// reflection made three allocations per transfer.
func TestSpansAllocationsFlat(t *testing.T) {
	allocs := func(xfers int) float64 {
		r := NewRecorder(0)
		genLog(t, 1, logShape{apps: 1, xfers: xfers, idScale: 1}, r, &oracleLog{})
		return testing.AllocsPerRun(5, func() { sinkSpans = r.Spans() })
	}
	few, many := allocs(1_000), allocs(10_000)
	t.Logf("Spans() allocations: %v over 1,000 transfers, %v over 10,000", few, many)
	if many > few {
		t.Errorf("Spans() makes %v allocations over 10,000 transfers and %v over 1,000; want no growth", many, few)
	}
}

func TestSpanLogAllocation(t *testing.T) {
	// NewRecorder allocates the Recorder and nothing else: no chunk and
	// no label table until the first record. The Recorder's own bytes are
	// its size rounded up to the allocator's size class.
	if n := testing.AllocsPerRun(100, func() { sinkRecorder = NewRecorder(0) }); n != 1 {
		t.Errorf("NewRecorder makes %v allocations, want 1 (the Recorder itself)", n)
	}
	own := allocBytes(func() { sinkRecorder = new(Recorder) })
	if b := allocBytes(func() { sinkRecorder = NewRecorder(0) }); b > own {
		t.Errorf("NewRecorder allocates %d bytes, more than the %d a Recorder takes", b, own)
	}
	// 256 records of 40 bytes and the Flight itself; a ring of whole
	// PhaseEvents took 22.5 KB.
	if b := allocBytes(func() { sinkFlight = NewFlight(DefaultFlightDepth) }); b > 10_300 {
		t.Errorf("NewFlight(DefaultFlightDepth) allocates %d bytes, want at most 10300", b)
	}
	const n = 100_000
	r := NewRecorder(0)
	lbl := r.Intern("copilot@cell0")
	b := allocBytes(func() {
		for i := 0; i < n; i++ {
			r.AddPhase(lbl, PhaseEvent{Xfer: int64(i + 1), Phase: PhaseRelay, Channel: 3, ChanType: 5, Bytes: 1600,
				Start: sim.Time(i), End: sim.Time(i + 1)})
		}
	})
	if per := float64(b) / n; per > 16 {
		t.Errorf("recording %d phases allocates %.1f bytes each, want at most 16", n, per)
	}
	if got := len(r.Phases()); got != n {
		t.Fatalf("kept %d phases, want %d", got, n)
	}
	b = allocBytes(func() {
		for i := 0; i < n; i++ {
			r.AddEvent(lbl, Event{At: sim.Time(i), Kind: KindRead, Channel: 3, Bytes: 1600, Xfer: int64(i + 1)})
		}
	})
	if per := float64(b) / n; per > 12 {
		t.Errorf("recording %d events allocates %.1f bytes each, want at most 12", n, per)
	}
	if got := len(r.Events()); got != n {
		t.Fatalf("kept %d events, want %d", got, n)
	}
}

// fuzzFields hands out record fields from fuzz input: each takes a
// selector byte that picks 0, ±1, a type extreme or the next raw bytes.
type fuzzFields []byte

func (f *fuzzFields) next() uint8 {
	if len(*f) == 0 {
		return 0
	}
	v := (*f)[0]
	*f = (*f)[1:]
	return v
}

func (f *fuzzFields) raw(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

func (f *fuzzFields) i64() int64 {
	switch f.next() % 6 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return math.MinInt64
	case 4:
		return math.MaxInt64
	}
	return int64(f.raw(8))
}

func (f *fuzzFields) i32() int {
	switch f.next() % 5 {
	case 0:
		return 0
	case 1:
		return math.MinInt32
	case 2:
		return math.MaxInt32
	case 3:
		return int(int8(f.next()))
	}
	return int(int32(f.raw(4)))
}

// FuzzSpanLogRoundTrip writes arbitrary field values, within their stored
// widths, through AddPhase, RecordPhase, AddEvent and Record, and holds
// what the Recorder reads back to the oracle.
func FuzzSpanLogRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0, 3, 7, 9, 4, 1, 2, 3, 4, 0, 3, 4, 1, 2, 1, 3, 4, 1, 0, 2})
	f.Add(uint8(3), []byte{1, 4, 3, 3, 2, 5, 1, 3, 4, 0, 4, 3, 2, 0, 1, 2, 2, 4, 3, 3, 0, 2, 0, 0})
	f.Add(uint8(0), []byte{2, 5, 1, 2, 3, 4, 5, 6, 7, 8, 1, 4, 9, 9, 9, 9, 3, 200, 1, 4, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, limit uint8, data []byte) {
		names := []string{"PI_MAIN(rank0@node0)", "copilot@cell0", "spe0#0(spe@node0)"}
		r, o := NewRecorder(int(limit%32)), &oracleLog{limit: int(limit % 32)}
		lbls := make([]Label, len(names))
		for i, n := range names {
			lbls[i] = r.Intern(n)
		}
		in := fuzzFields(data)
		for len(in) > 0 {
			op, who := in.next(), int(in.next())%len(names)
			if op%2 == 0 {
				pe := PhaseEvent{Xfer: in.i64(), Phase: PhaseKind(in.next()), Proc: names[who],
					Channel: in.i32(), ChanType: int(in.next()), Bytes: in.i32(),
					Start: sim.Time(in.i64()), End: sim.Time(in.i64()), Chunk: in.i32()}
				if pe.Chunk > 0 {
					pe.Stream = pe.Xfer
				}
				o.RecordPhase(pe)
				if op%4 == 0 {
					r.RecordPhase(pe)
				} else {
					r.AddPhase(lbls[who], pe)
				}
				continue
			}
			ev := Event{At: sim.Time(in.i64()), Kind: Kind(in.next()), Proc: names[who],
				Channel: in.i32(), Bytes: in.i32(), Xfer: in.i64()}
			o.Record(ev)
			if op%4 == 1 {
				r.Record(ev)
			} else {
				r.AddEvent(lbls[who], ev)
			}
		}
		checkAgainstOracle(t, r, o)
	})
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestLabelLimit(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < MaxLabels; i++ {
		if l := r.Intern(fmt.Sprint(i)); int(l) != i {
			t.Fatalf("label %d numbered %d", i, l)
		}
	}
	r.RecordPhase(PhaseEvent{Proc: fmt.Sprint(MaxLabels - 1)})
	if l := r.Intern("0"); l != 0 || r.Phases()[0].Proc != fmt.Sprint(MaxLabels-1) {
		t.Fatal("a full table no longer resolves its names")
	}
	if !panics(func() { r.Intern("one too many") }) {
		t.Fatal("a name past MaxLabels was numbered")
	}
	if panics(func() { NewFlight(1).SetNames(make([]string, MaxLabels)) }) {
		t.Fatal("a flight ring refused MaxLabels track names")
	}
	if !panics(func() { NewFlight(1).SetNames(make([]string, MaxLabels+1)) }) {
		t.Fatal("a flight ring took more than MaxLabels track names")
	}
}

func TestRecordPhaseChecksStoredFields(t *testing.T) {
	bad := map[string]PhaseEvent{
		"stream without chunk":  {Xfer: 4, Stream: 4},
		"chunk of other stream": {Xfer: 4, Stream: 5, Chunk: 1},
		"chunk without stream":  {Xfer: 4, Chunk: 1},
		"bytes past 32 bits":    {Xfer: 4, Bytes: 1 << 31},
		"channel type too wide": {Xfer: 4, ChanType: 256},
	}
	for name, pe := range bad {
		if !panics(func() { NewRecorder(0).RecordPhase(pe) }) {
			t.Errorf("%s: RecordPhase(%+v) stored an event it cannot keep exactly", name, pe)
		}
	}
	r := NewRecorder(0)
	edge := PhaseEvent{Xfer: 4, Stream: 4, Chunk: 1<<31 - 1, Bytes: 1<<31 - 1, Channel: -1 << 31, ChanType: 255}
	r.RecordPhase(edge)
	edge.Proc = ""
	if got := r.Phases(); len(got) != 1 || got[0] != edge {
		t.Fatalf("edge values read back as %+v, want %+v", got, edge)
	}
}

// BenchmarkAddPhase is the cost of one phase on the path core takes: into
// the flight ring and a span recorder, by label.
func BenchmarkAddPhase(b *testing.B) {
	f, r := NewFlight(DefaultFlightDepth), NewRecorder(0)
	f.SetNames([]string{"copilot@cell0"})
	lbl := r.Intern("copilot@cell0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pe := PhaseEvent{Xfer: int64(i + 1), Phase: PhaseRelay, Channel: 3, ChanType: 5, Bytes: 1600,
			Start: sim.Time(i), End: sim.Time(i + 1)}
		f.Add(0, pe)
		r.AddPhase(lbl, pe)
	}
}
