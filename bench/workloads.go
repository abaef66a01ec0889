package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"time"

	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/fault"
	"cellpilot/internal/flowmap"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/mpi"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// Round trips per flow (Exchange iterations for imb64-exchange) in one run
// of each workload. They are fixed here rather than by a flag so that every
// result compares like with like; the environment record repeats them.
// Each run takes about a second on a 2 GHz Xeon core: the host's speed
// drifts by ±10 % over tens of seconds, and the median of many short runs
// rides out a slow spell that a few long runs would average in.
const (
	pingpongRounds = 4000
	streamRounds   = 800
	imbRounds      = 1200
	chaosRounds    = 2000
)

// workload is one benchmark input: a driver that builds its clusters and
// runs them through the layers' public functions, timing the two phases
// apart on the rep it is given.
type workload struct {
	name   string
	rounds int
	// msgs is the number of messages one run delivers at the given round
	// count (warm-up rounds included) — the denominator of every per-message
	// metric and the attempted-op count.
	msgs func(rounds int) int64
	run  func(r *rep) error
	// micro returns the workload's Pilot format with a seeded payload and a
	// receive buffer, for the fmtmsg microbenchmark.
	micro func(seed int64) (format string, in, out any)
	// table2 marks the paper's Table II traffic, whose one-way times are
	// compared with the paper; sinks marks a workload that attaches the
	// observation sinks, which a traced measurement also runs without.
	table2, sinks bool
}

var workloads = []workload{
	{
		name: "pingpong-1600", rounds: pingpongRounds, table2: true,
		msgs: func(n int) int64 { return 5 * 2 * int64(n+1) },
		run:  func(r *rep) error { return runSerial(r, 100, core.TransferOptions{}) },
		micro: func(seed int64) (string, any, any) {
			return "%100Lf", ldValues(seed, 0, 100), make([]fmtmsg.LongDoubleVal, 100)
		},
	},
	{
		name: "stream-64k", rounds: streamRounds,
		msgs: func(n int) int64 { return 5 * 2 * int64(n+1) },
		run:  func(r *rep) error { return runSerial(r, 4096, streamTransfer) },
		micro: func(seed int64) (string, any, any) {
			return "%4096Lf", ldValues(seed, 0, 4096), make([]fmtmsg.LongDoubleVal, 4096)
		},
	},
	{
		name: "imb64-exchange", rounds: imbRounds,
		msgs: func(n int) int64 { return imbRanks * 2 * int64(n+1) },
		run:  runIMB,
		micro: func(seed int64) (string, any, any) {
			return fmt.Sprintf("%%%db", imbBytes), imbPayload(seed, 0), make([]byte, imbBytes)
		},
	},
	{
		name: "chaos-observed", rounds: chaosRounds, sinks: true,
		msgs: func(n int) int64 { return 5 * 2 * int64(n+1) },
		run:  runChaos,
		micro: func(seed int64) (string, any, any) {
			return "%64d", int32Values(seed, 0, 64), make([]int32, 64)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamTransfer is the size sweep's default chunk engine setting.
var streamTransfer = core.TransferOptions{ChunkSize: 8192, PipelineDepth: 4, ZeroCopyType4: true}

// op is one channel operation of a flow, named for its span.
type op struct {
	name string
	do   func(ch *core.Channel, format string, args ...any) error
}

// endpoint is the channel API that core.Ctx and core.SPECtx share.
type endpoint interface {
	Write(ch *core.Channel, format string, args ...any)
	Read(ch *core.Channel, format string, args ...any)
	TryWrite(ch *core.Channel, timeout sim.Time, format string, args ...any) error
	TryRead(ch *core.Channel, timeout sim.Time, format string, args ...any) error
}

// ops returns an endpoint's write and read, named "core.<kind>.<call>". A
// zero timeout selects the blocking Write/Read, which unwind the process on
// a fault; otherwise TryWrite/TryRead return the fault to the caller.
func ops(e endpoint, kind string, timeout sim.Time) (write, read op) {
	if timeout == 0 {
		return op{"core." + kind + ".Write", func(ch *core.Channel, f string, args ...any) error { e.Write(ch, f, args...); return nil }},
			op{"core." + kind + ".Read", func(ch *core.Channel, f string, args ...any) error { e.Read(ch, f, args...); return nil }}
	}
	return op{"core." + kind + ".TryWrite", func(ch *core.Channel, f string, args ...any) error { return e.TryWrite(ch, timeout, f, args...) }},
		op{"core." + kind + ".TryRead", func(ch *core.Channel, f string, args ...any) error { return e.TryRead(ch, timeout, f, args...) }}
}

// flow is one closed-loop round-trip stream over a channel pair: the
// initiator writes, the echo reads and writes the message back, and the
// initiator reads the reply and checks it against what it sent before
// sending the next one. Round 0 is an untimed warm-up, as in
// workload.PingPong.
type flow[T comparable] struct {
	r       *rep
	typ     int
	format  string
	timeout sim.Time // 0: blocking ops; else Try* ops with this deadline
	// crossNode marks flows whose payload crosses the interconnect.
	crossNode bool
	send      []T
	recv      []T
	echo      []T
	// The buffers boxed once, so the ops' variadic arguments do not
	// allocate per call.
	sendArg, recvArg, echoArg any
	stamp                     func(buf []T, round int)
	ab, ba                    *core.Channel

	total sim.Time // virtual time of rounds 1..rounds
	done  int      // round trips completed
	ok    int      // round trips whose reply matched
}

func newFlow[T comparable](r *rep, typ int, format string, send []T, stamp func([]T, int)) *flow[T] {
	f := &flow[T]{
		r: r, typ: typ, format: format, send: send, stamp: stamp,
		recv: make([]T, len(send)), echo: make([]T, len(send)),
		crossNode: typ == 1 || typ == 3 || typ == 5,
	}
	f.sendArg, f.recvArg, f.echoArg = f.send, f.recv, f.echo
	return f
}

func (f *flow[T]) initiate(write, read op, now func() sim.Time) {
	spans, parent := f.r.spans, f.r.parent
	var start sim.Time
	for round := 0; round <= f.r.rounds; round++ {
		if round == 1 {
			start = now()
		}
		t0 := time.Now()
		f.stamp(f.send, round)
		id := spans.begin(write.name, parent)
		err := write.do(f.ab, f.format, f.sendArg)
		spans.end(id)
		if err != nil {
			return
		}
		id = spans.begin(read.name, parent)
		err = read.do(f.ba, f.format, f.recvArg)
		spans.end(id)
		if err != nil {
			return
		}
		if round > 0 {
			f.r.rt[f.typ] = append(f.r.rt[f.typ], float64(time.Since(t0).Nanoseconds())/1e3)
		}
		f.done++
		if slices.Equal(f.send, f.recv) {
			f.ok++
		}
	}
	f.total = now() - start
}

func (f *flow[T]) serveEcho(write, read op) {
	for round := 0; round <= f.r.rounds; round++ {
		if read.do(f.ab, f.format, f.echoArg) != nil || write.do(f.ba, f.format, f.echoArg) != nil {
			return
		}
	}
}

func (f *flow[T]) initCtx(c *core.Ctx) {
	w, rd := ops(c, "Ctx", f.timeout)
	f.initiate(w, rd, c.P.Now)
}

func (f *flow[T]) initSPE(c *core.SPECtx) {
	w, rd := ops(c, "SPECtx", f.timeout)
	f.initiate(w, rd, c.P.Now)
}

func (f *flow[T]) echoCtx(c *core.Ctx) { f.serveEcho(ops(c, "Ctx", f.timeout)) }

func (f *flow[T]) echoSPE(c *core.SPECtx) { f.serveEcho(ops(c, "SPECtx", f.timeout)) }

// account folds the flow's outcome into its rep and fingerprint.
func (f *flow[T]) account(payloadBytes int) {
	r := f.r
	r.okMsgs += 2 * int64(f.ok)
	if f.crossNode {
		r.crossPayload += 2 * int64(f.done) * int64(payloadBytes)
	}
	oneWay := f.total / sim.Time(2*r.rounds)
	r.oneWay[f.typ] = oneWay
	fmt.Fprintf(&r.fp, "type%d oneway_ns=%d done=%d ok=%d\n", f.typ, int64(oneWay), f.done, f.ok)
}

// ldValues is a seeded long-double payload; part distinguishes the flows
// of one run.
func ldValues(seed int64, part, n int) []fmtmsg.LongDoubleVal {
	rng := rand.New(rand.NewSource(seed*8 + int64(part)))
	v := make([]fmtmsg.LongDoubleVal, n)
	for i := range v {
		v[i] = fmtmsg.LongDoubleVal{Hi: rng.Float64(), Lo: rng.Float64()}
	}
	return v
}

func stampLD(buf []fmtmsg.LongDoubleVal, round int) { buf[0].Lo = float64(round) }

func int32Values(seed int64, part, n int) []int32 {
	rng := rand.New(rand.NewSource(seed*8 + int64(part)))
	v := make([]int32, n)
	for i := range v {
		v[i] = rng.Int31()
	}
	return v
}

func stampInt32(buf []int32, round int) { buf[0] = int32(round) }

// appBuilder records a span around each configuration-phase call.
type appBuilder struct {
	r *rep
	a *core.App
}

func (r *rep) newApp(c *cluster.Cluster, opts core.Options) *appBuilder {
	defer r.spans.end(r.spans.begin("core.NewApp", r.parent))
	return &appBuilder{r: r, a: core.NewApp(c, opts)}
}

func (b *appBuilder) process(node int, name string, fn func(*core.Ctx)) *core.Process {
	defer b.r.spans.end(b.r.spans.begin("core.CreateProcessOn", b.r.parent))
	return b.a.CreateProcessOn(node, name, func(ctx *core.Ctx, _ int, _ any) { fn(ctx) }, 0, nil)
}

func (b *appBuilder) spe(name string, body func(*core.SPECtx), parent *core.Process, index int) *core.Process {
	defer b.r.spans.end(b.r.spans.begin("core.CreateSPE", b.r.parent))
	return b.a.CreateSPE(&core.SPEProgram{Name: name, Body: body}, parent, index)
}

// pair creates a flow's two channels.
func (b *appBuilder) pair(from, to *core.Process) (ab, ba *core.Channel) {
	defer b.r.spans.end(b.r.spans.begin("core.CreateChannel", b.r.parent))
	return b.a.CreateChannel(from, to), b.a.CreateChannel(to, from)
}

// runSerial runs Table I types 1–5 one after another, each on a fresh
// 2-Cell + 1-Xeon cluster with one initiator/echo pair and an elems-long
// %Lf payload.
func runSerial(r *rep, elems int, tr core.TransferOptions) error {
	for typ := 1; typ <= 5; typ++ {
		if err := runPingPongType(r, typ, elems, tr); err != nil {
			return fmt.Errorf("type %d: %w", typ, err)
		}
	}
	return nil
}

// runPingPongType mirrors workload.PingPong's CellPilot arm call for call
// (same cluster, process and channel creation order, and warm-up round),
// so its virtual one-way time equals the Table II driver's; only the
// build/run split, the payload and the host-side instrumentation differ.
func runPingPongType(r *rep, typ, elems int, tr core.TransferOptions) error {
	f := newFlow(r, typ, fmt.Sprintf("%%%dLf", elems), ldValues(r.seed, typ, elems), stampLD)
	var (
		c        *cluster.Cluster
		b        *appBuilder
		mainBody func(*core.Ctx)
	)
	err := r.build(func() error {
		var err error
		if c, err = r.newCluster(cluster.Spec{CellNodes: 2, XeonNodes: 1, Seed: 7}); err != nil {
			return err
		}
		b = r.newApp(c, core.Options{Transfer: tr})
		b.a.HostProf = r.hostProf()
		main := b.a.Main()
		switch typ {
		case 1: // PPE (cell0) <-> PPE (cell1)
			peer := b.process(1, "pp_b", f.echoCtx)
			f.ab, f.ba = b.pair(main, peer)
			mainBody = f.initCtx
		case 2: // PPE (cell0) <-> local SPE
			spe := b.spe("pp_echo", f.echoSPE, main, 0)
			f.ab, f.ba = b.pair(main, spe)
			mainBody = func(ctx *core.Ctx) {
				ctx.RunSPE(spe, 0, nil)
				f.initCtx(ctx)
			}
		case 3: // PPE (cell1) <-> remote SPE (cell0)
			spe := b.spe("pp_echo", f.echoSPE, main, 0)
			peer := b.process(1, "pp_a", f.initCtx)
			f.ab, f.ba = b.pair(peer, spe)
			mainBody = func(ctx *core.Ctx) { ctx.RunSPE(spe, 0, nil) }
		case 4: // SPE <-> SPE, same Cell node
			s1 := b.spe("pp_init", f.initSPE, main, 0)
			s2 := b.spe("pp_echo", f.echoSPE, main, 1)
			f.ab, f.ba = b.pair(s1, s2)
			mainBody = func(ctx *core.Ctx) {
				ctx.RunSPE(s1, 0, nil)
				ctx.RunSPE(s2, 0, nil)
			}
		case 5: // SPE (cell0) <-> SPE (cell1)
			var s2 *core.Process
			parent := b.process(1, "pp_parent", func(ctx *core.Ctx) { ctx.RunSPE(s2, 0, nil) })
			s1 := b.spe("pp_init", f.initSPE, main, 0)
			s2 = b.spe("pp_echo", f.echoSPE, parent, 0)
			f.ab, f.ba = b.pair(s1, s2)
			mainBody = func(ctx *core.Ctx) { ctx.RunSPE(s1, 0, nil) }
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.run("core.App.Run", func() error { return b.a.Run(mainBody) }); err != nil {
		return err
	}
	f.account(16 * elems)
	r.noteApp(b.a)
	return nil
}

// imb64-exchange shape: one PPE rank per Cell blade, 1 KiB messages. Main
// memory is cut from the cluster default of 64 MiB to 4 MiB per blade: raw
// MPI never allocates from it, and at the default every measured run would
// hold 4.4 GB resident.
const (
	imbRanks      = 64
	imbBytes      = 1024
	imbMemPerNode = 4 << 20
)

// imbPayload is rank's seeded message; bytes 0..3 carry the iteration.
func imbPayload(seed int64, rank int) []byte {
	rng := rand.New(rand.NewSource(seed*1024 + int64(rank)))
	b := make([]byte, imbBytes)
	rng.Read(b)
	return b
}

// runIMB is IMB Exchange over raw MPI with no core.App, mirroring
// workload.IMB (same cluster seed, placements, spawn order and call
// sequence) so its per-iteration virtual time equals the IMB driver's.
func runIMB(r *rep) error {
	var (
		c     *cluster.Cluster
		w     *mpi.World
		total sim.Time
		done  int64
	)
	payload := make([][]byte, imbRanks)
	for i := range payload {
		payload[i] = imbPayload(r.seed, i)
	}
	// matches checks a received message against rank src's payload for
	// iteration it.
	matches := func(got []byte, src, it int) bool {
		return len(got) == imbBytes && binary.LittleEndian.Uint32(got) == uint32(it) &&
			bytes.Equal(got[4:], payload[src][4:])
	}
	body := func(p *sim.Proc, id int) {
		rk := w.Rank(id)
		left, right := (id-1+imbRanks)%imbRanks, (id+1)%imbRanks
		buf := append([]byte(nil), payload[id]...)
		spans := r.spans
		if id != 0 {
			spans = nil // op spans at the initiator only
		}
		parent := r.parent
		var start sim.Time
		for it := 0; it <= r.rounds; it++ {
			if it == 1 && id == 0 {
				start = p.Now()
			}
			t0 := time.Now()
			binary.LittleEndian.PutUint32(buf, uint32(it))
			sp := spans.begin("mpi.Irecv", parent)
			q1 := rk.Irecv(p, left, 1)
			spans.end(sp)
			sp = spans.begin("mpi.Irecv", parent)
			q2 := rk.Irecv(p, right, 2)
			spans.end(sp)
			sp = spans.begin("mpi.Isend", parent)
			s1 := rk.Isend(p, right, 1, buf)
			spans.end(sp)
			sp = spans.begin("mpi.Isend", parent)
			s2 := rk.Isend(p, left, 2, buf)
			spans.end(sp)
			sp = spans.begin("mpi.Waitall", parent)
			rk.Waitall(p, []*mpi.Request{q1, q2, s1, s2})
			spans.end(sp)
			if id == 0 && it > 0 {
				r.rt[0] = append(r.rt[0], float64(time.Since(t0).Nanoseconds())/1e3)
			}
			// Both receives are complete, so Wait only hands back the data.
			if got, _ := rk.Wait(p, q1); matches(got, left, it) {
				r.okMsgs++
			}
			if got, _ := rk.Wait(p, q2); matches(got, right, it) {
				r.okMsgs++
			}
			done++
		}
		if id == 0 {
			total = p.Now() - start
		}
	}
	err := r.build(func() error {
		var err error
		c, err = r.newCluster(cluster.Spec{CellNodes: imbRanks, MemPerNode: imbMemPerNode, Seed: 5})
		if err != nil {
			return err
		}
		placements := make([]mpi.Placement, imbRanks)
		for i := range placements {
			placements[i] = mpi.Placement{Node: i, Label: fmt.Sprintf("imb%d", i)}
		}
		id := r.spans.begin("mpi.NewWorld", r.parent)
		w, err = mpi.NewWorld(c, placements)
		r.spans.end(id)
		if err != nil {
			return err
		}
		// Guarded: a typed nil in the HostProbe interface would defeat the
		// kernel's nil fast path.
		if h := r.hostProf(); h != nil {
			c.K.SetHostProbe(h)
			w.Host = h
			c.Net.SetHostProf(h)
		}
		for i := 0; i < imbRanks; i++ {
			c.K.Spawn(fmt.Sprintf("imb%d", i), func(p *sim.Proc) { body(p, i) })
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.run("sim.Kernel.Run", c.K.Run); err != nil {
		return err
	}
	r.crossPayload += 2 * done * imbBytes
	r.iterTime = total / sim.Time(r.rounds)
	fmt.Fprintf(&r.fp, "iter_ns=%d rank_iters=%d\n", int64(r.iterTime), done)
	r.noteCluster(c)
	return nil
}

// chaosTimeout bounds every Try* op: far above any retransmit backoff, so
// it fires only if a flow genuinely stalls.
const chaosTimeout = 200 * sim.Millisecond

// chaosSPEs names the SPE processes of chaos-observed, the targets of the
// mailbox faults.
var chaosSPEs = []string{"t2e#0", "t3e#0", "t4i#0", "t4e#0", "t5i#0", "t5e#0"}

// chaosPlan is chaos-observed's seeded fault schedule: 5 % symmetric frame
// loss on node0<->node1 (types 1 and 5 cross it), and one dropped outbound
// mailbox word per SPE at a seeded time in the first virtual second. The
// runtime recovers from both — stop-and-wait retransmission and the stub's
// descriptor repost — so every op completes.
func chaosPlan(seed int64) fault.Plan {
	rng := rand.New(rand.NewSource(seed))
	p := fault.Plan{Seed: seed, Links: []fault.LinkPolicy{
		{From: 0, To: 1, DropProb: 0.05},
		{From: 1, To: 0, DropProb: 0.05},
	}}
	for _, proc := range chaosSPEs {
		p.Events = append(p.Events, fault.Event{
			At: sim.Time(1+rng.Int63n(1000)) * sim.Millisecond, Kind: fault.MailboxDrop, Proc: proc,
		})
	}
	return p
}

// runChaos runs all five types at once in one App, each flow with its own
// initiator and echo processes, so the flows contend for the Co-Pilots,
// under chaosPlan and with every observation sink attached (unless the rep
// asks for the sink-free comparison run).
//
// SPE placement and launch order keep every op within chaosTimeout. A
// Co-Pilot decodes mailbox requests by scanning its SPEs in launch order,
// so when it is saturated the last-launched SPE starves: with five SPEs on
// cell0, or with t5e launched after t3e/t4i/t4e on cell1, the type-5 flow
// (and at times type 4) times out on its first op at 5000 rounds, with or
// without faults. Cell0 therefore serves only t2e and t5i, and cell1
// launches t5e first.
func runChaos(r *rep) error {
	var flows [6]*flow[int32]
	for typ := 1; typ <= 5; typ++ {
		flows[typ] = newFlow(r, typ, "%64d", int32Values(r.seed, typ, 64), stampInt32)
		flows[typ].timeout = chaosTimeout
	}
	var (
		c        *cluster.Cluster
		b        *appBuilder
		inj      *fault.Injector
		mainBody func(*core.Ctx)
	)
	err := r.build(func() error {
		var err error
		if c, err = r.newCluster(cluster.Spec{CellNodes: 2, XeonNodes: 1, Seed: 7}); err != nil {
			return err
		}
		inj = fault.NewInjector(chaosPlan(r.seed))
		b = r.newApp(c, core.Options{Faults: inj})
		if !r.bare {
			if err := b.attachSinks(); err != nil {
				return err
			}
		}
		b.a.HostProf = r.hostProf()
		main := b.a.Main()
		var t2e, t3e, t4i, t4e, t5e *core.Process
		t1i := b.process(0, "t1_init", flows[1].initCtx)
		t1e := b.process(1, "t1_echo", flows[1].echoCtx)
		t2i := b.process(0, "t2_init", func(ctx *core.Ctx) {
			ctx.RunSPE(t2e, 0, nil)
			flows[2].initCtx(ctx)
		})
		t3i := b.process(2, "t3_init", flows[3].initCtx)
		launch1 := b.process(1, "launch1", func(ctx *core.Ctx) {
			for _, sp := range []*core.Process{t5e, t3e, t4i, t4e} {
				ctx.RunSPE(sp, 0, nil)
			}
		})
		t2e = b.spe("t2e", flows[2].echoSPE, t2i, 0)
		t3e = b.spe("t3e", flows[3].echoSPE, launch1, 0)
		t4i = b.spe("t4i", flows[4].initSPE, launch1, 0)
		t4e = b.spe("t4e", flows[4].echoSPE, launch1, 0)
		t5i := b.spe("t5i", flows[5].initSPE, main, 0)
		t5e = b.spe("t5e", flows[5].echoSPE, launch1, 0)
		flows[1].ab, flows[1].ba = b.pair(t1i, t1e)
		flows[2].ab, flows[2].ba = b.pair(t2i, t2e)
		flows[3].ab, flows[3].ba = b.pair(t3i, t3e)
		flows[4].ab, flows[4].ba = b.pair(t4i, t4e)
		flows[5].ab, flows[5].ba = b.pair(t5i, t5e)
		mainBody = func(ctx *core.Ctx) { ctx.RunSPE(t5i, 0, nil) }
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.run("core.App.Run", func() error { return b.a.Run(mainBody) }); err != nil {
		return err
	}
	for typ := 1; typ <= 5; typ++ {
		flows[typ].account(4 * 64)
	}
	log := inj.Log()
	h := fnv.New64a()
	h.Write([]byte(strings.Join(log, "\n")))
	fmt.Fprintf(&r.fp, "counts=%+v\nkilled=%v\nfault_log=%d lines %016x\n", inj.Counts, b.a.KilledProcs(), len(log), h.Sum64())
	r.faults = inj.Counts
	r.noteApp(b.a)
	return nil
}

// attachSinks attaches every product observation sink through the App's
// checked setters.
func (b *appBuilder) attachSinks() error {
	defer b.r.spans.end(b.r.spans.begin("sinks.attach", b.r.parent))
	a := b.a
	for _, err := range []error{
		a.SetTrace(trace.NewRecorder(0)),
		a.SetMetrics(core.NewMeter()),
		a.SetProfile(profile.New()),
		a.SetTimeline(timeline.New(0)),
		a.SetFlows(flowmap.New(0)),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}
