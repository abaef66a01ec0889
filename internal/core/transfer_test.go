package core

import (
	"fmt"
	"strings"
	"testing"

	"cellpilot/internal/fault"
	"cellpilot/internal/sim"
	"cellpilot/internal/trace"
)

// runType1Bounce runs one type-1 round trip of the given payload size
// between the main PPE (node 0) and a PPE on node 1, optionally under a
// fault plan and soft timeouts, and reports the round-trip outcome.
type bounceResult struct {
	vt       sim.Time
	writeErr string
	readErr  string
	faulted  bool
	got      []byte
}

func runType1Bounce(t *testing.T, bytes int, opts Options, rec *trace.Recorder, timeout sim.Time) bounceResult {
	t.Helper()
	c := newTestCluster(t)
	a := NewApp(c, opts)
	a.Trace = rec
	format := fmt.Sprintf("%%%db", bytes)
	msg := make([]byte, bytes)
	for i := range msg {
		msg[i] = byte(i*7 + 1)
	}
	var res bounceResult
	res.got = make([]byte, bytes)
	var ab, ba *Channel
	peer := a.CreateProcessOn(1, "bounce_peer", func(ctx *Ctx, _ int, _ any) {
		buf := make([]byte, bytes)
		if timeout > 0 {
			if ctx.TryRead(ab, timeout, format, buf) != nil {
				return
			}
			ctx.TryWrite(ba, timeout, format, buf)
			return
		}
		ctx.Read(ab, format, buf)
		ctx.Write(ba, format, buf)
	}, 0, nil)
	ab = a.CreateChannel(a.Main(), peer)
	ba = a.CreateChannel(peer, a.Main())
	err := a.Run(func(ctx *Ctx) {
		if timeout > 0 {
			if err := ctx.TryWrite(ab, timeout, format, msg); err != nil {
				res.writeErr = err.Error()
			}
			if err := ctx.TryRead(ba, timeout, format, res.got); err != nil {
				res.readErr = err.Error()
			}
			return
		}
		ctx.Write(ab, format, msg)
		ctx.Read(ba, format, res.got)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res.vt = a.K.Now()
	res.faulted = ab.Fault() != nil || ba.Fault() != nil
	if res.writeErr == "" && res.readErr == "" {
		for i := range msg {
			if res.got[i] != msg[i] {
				t.Fatalf("payload corrupted at %d: got %d want %d", i, res.got[i], msg[i])
			}
		}
	}
	return res
}

// countChunkRelay counts recorded chunk-relay phases across all spans.
func countChunkRelay(rec *trace.Recorder) int {
	n := 0
	for _, sp := range rec.Spans() {
		for _, ph := range sp.Phases {
			if ph.Phase == trace.PhaseChunkRelay {
				n++
			}
		}
	}
	return n
}

// E-TR1: with the engine disabled (zero ChunkSize), the other knobs are
// inert — the virtual timeline is bit-for-bit the pre-engine one no matter
// what PipelineDepth/EagerMax/ZeroCopyType4 the options carry alongside a
// zero ChunkSize... except ZeroCopyType4, which is its own independent
// switch and must be off too for strict equality.
func TestTransferDisabledZeroCost(t *testing.T) {
	_, bare := runFiveTypes(t, 2, sinks{}, Options{})
	_, knobs := runFiveTypes(t, 2, sinks{}, Options{
		Transfer: TransferOptions{ChunkSize: 0, PipelineDepth: 9, EagerMax: 123},
	})
	if bare != knobs {
		t.Fatalf("zero ChunkSize is not inert: bare=%v with-knobs=%v", bare, knobs)
	}
}

// E-TR2: the eager/stream boundary sits exactly at EagerMax on-wire bytes:
// hdrSize+wire == EagerMax stays on the plain path, one byte more streams.
// Both deliver the payload intact.
func TestTransferEagerBoundary(t *testing.T) {
	opts := Options{Transfer: TransferOptions{ChunkSize: 4096}}
	eagerMax := 4096 // default: Params.EagerThreshold

	recAt := trace.NewRecorder(0)
	runType1Bounce(t, eagerMax-hdrSize, opts, recAt, 0)
	if n := countChunkRelay(recAt); n != 0 {
		t.Fatalf("wire size == EagerMax took the chunked path (%d chunk-relay phases)", n)
	}

	recOver := trace.NewRecorder(0)
	runType1Bounce(t, eagerMax-hdrSize+1, opts, recOver, 0)
	if n := countChunkRelay(recOver); n == 0 {
		t.Fatal("wire size == EagerMax+1 did not take the chunked path")
	}
}

// E-TR3: a chunked transfer is deterministic and faster than the
// store-and-forward rendezvous it replaces at large sizes.
func TestTransferChunkedFasterAndDeterministic(t *testing.T) {
	const bytes = 65536
	base := runType1Bounce(t, bytes, Options{}, nil, 0)
	c1 := runType1Bounce(t, bytes, Options{Transfer: TransferOptions{ChunkSize: 8192}}, nil, 0)
	c2 := runType1Bounce(t, bytes, Options{Transfer: TransferOptions{ChunkSize: 8192}}, nil, 0)
	if c1.vt != c2.vt {
		t.Fatalf("chunked run not deterministic: %v vs %v", c1.vt, c2.vt)
	}
	if c1.vt >= base.vt {
		t.Fatalf("chunked %dB round trip (%v) not faster than baseline (%v)", bytes, c1.vt, base.vt)
	}
}

// E-TR4: a link that dies mid-pipeline poisons the channel instead of
// delivering a torn payload, and the outcome is deterministic.
func TestTransferLinkFaultMidStream(t *testing.T) {
	once := func() bounceResult {
		plan := fault.Plan{Seed: 3, Links: []fault.LinkPolicy{
			{From: 0, To: 1, DropProb: 1, After: 500 * sim.Microsecond},
			{From: 1, To: 0, DropProb: 1, After: 500 * sim.Microsecond},
		}}
		return runType1Bounce(t, 65536, Options{
			Faults:   fault.NewInjector(plan),
			Transfer: TransferOptions{ChunkSize: 8192},
		}, nil, 20*sim.Millisecond)
	}
	r1 := once()
	r2 := once()
	if r1.readErr == "" {
		t.Fatal("reader completed across a dead link")
	}
	if !r1.faulted {
		t.Fatal("mid-stream link death did not poison the channel")
	}
	// The torn payload must never reach the reader's buffer.
	for i, b := range r1.got {
		if b != 0 {
			t.Fatalf("torn payload leaked into the reader's buffer at %d", i)
		}
	}
	if r1.vt != r2.vt || r1.writeErr != r2.writeErr || r1.readErr != r2.readErr {
		t.Fatalf("faulted chunked run not deterministic:\n%v %q %q\n%v %q %q",
			r1.vt, r1.writeErr, r1.readErr, r2.vt, r2.writeErr, r2.readErr)
	}
	if !strings.Contains(r1.readErr, "channel") && !strings.Contains(r1.readErr, "deadline") {
		t.Errorf("reader error does not look like a channel fault: %q", r1.readErr)
	}
}

// E-TR5: the zero-copy type-4 fast path moves large local SPE↔SPE payloads
// over the EIB instead of through the Co-Pilot's mapped-LS memcpy, and is
// substantially faster for DMA-sized payloads.
func TestTransferZeroCopyType4(t *testing.T) {
	run := func(opts Options) sim.Time {
		c := newTestCluster(t)
		a := NewApp(c, opts)
		const n = 4096
		format := fmt.Sprintf("%%%dd", n/4)
		var ab, ba *Channel
		echo := &SPEProgram{Name: "zc_echo", Body: func(ctx *SPECtx) {
			buf := make([]int32, n/4)
			ctx.Read(ab, format, buf)
			ctx.Write(ba, format, buf)
		}}
		initp := &SPEProgram{Name: "zc_init", Body: func(ctx *SPECtx) {
			buf := make([]int32, n/4)
			for i := range buf {
				buf[i] = int32(i)
			}
			ctx.Write(ab, format, buf)
			got := make([]int32, n/4)
			ctx.Read(ba, format, got)
			for i := range got {
				if got[i] != int32(i) {
					ctx.P.Fatalf("corrupted at %d", i)
				}
			}
		}}
		s1 := a.CreateSPE(initp, a.Main(), 0)
		s2 := a.CreateSPE(echo, a.Main(), 1)
		ab = a.CreateChannel(s1, s2)
		ba = a.CreateChannel(s2, s1)
		if err := a.Run(func(ctx *Ctx) {
			ctx.RunSPE(s1, 0, nil)
			ctx.RunSPE(s2, 0, nil)
		}); err != nil {
			t.Fatal(err)
		}
		return a.K.Now()
	}
	base := run(Options{})
	zc := run(Options{Transfer: TransferOptions{ZeroCopyType4: true}})
	if zc >= base {
		t.Fatalf("zero-copy type 4 (%v) not faster than mapped memcpy (%v)", zc, base)
	}
}
