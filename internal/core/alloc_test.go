package core

import (
	"fmt"
	"runtime"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/fault"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sim"
)

// roundTrips runs rounds round trips of an elems-long "%<elems>Lf" payload
// (16 bytes an element; Table II's message is 100 of them) over one
// channel pair of the given Table I type, on the 2-Cell + 1-Xeon machine,
// and returns the heap allocations the whole run made, build included.
// The payload and the receive buffers are boxed once, so the ops'
// variadic arguments allocate nothing per call.
func roundTrips(t *testing.T, typ ChannelType, rounds, elems int, opts Options) uint64 {
	t.Helper()
	format := fmt.Sprintf("%%%dLf", elems)
	send := make([]fmtmsg.LongDoubleVal, elems)
	recv := make([]fmtmsg.LongDoubleVal, elems)
	echo := make([]fmtmsg.LongDoubleVal, elems)
	var sendArg, recvArg, echoArg any = send, recv, echo
	var ab, ba *Channel
	check := func(r int) bool {
		if recv[0] != send[0] {
			t.Errorf("type %d round %d: reply %v, sent %v", typ, r, recv[0], send[0])
			return false
		}
		return true
	}
	// The loops call Write and Read directly: through a func value or an
	// interface, each call's variadic argument slice would escape.
	initCtx := func(c *Ctx) {
		for r := 0; r < rounds; r++ {
			send[0].Lo = float64(r)
			c.Write(ab, format, sendArg)
			c.Read(ba, format, recvArg)
			if !check(r) {
				return
			}
		}
	}
	echoCtx := func(c *Ctx, _ int, _ any) {
		for r := 0; r < rounds; r++ {
			c.Read(ab, format, echoArg)
			c.Write(ba, format, echoArg)
		}
	}
	initSPE := &SPEProgram{Name: "init", Body: func(c *SPECtx) {
		for r := 0; r < rounds; r++ {
			send[0].Lo = float64(r)
			c.Write(ab, format, sendArg)
			c.Read(ba, format, recvArg)
			if !check(r) {
				return
			}
		}
	}}
	echoSPE := &SPEProgram{Name: "echo", Body: func(c *SPECtx) {
		for r := 0; r < rounds; r++ {
			c.Read(ab, format, echoArg)
			c.Write(ba, format, echoArg)
		}
	}}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := NewApp(c, opts)
	main := a.Main()
	var body func(*Ctx)
	switch typ {
	case Type1: // PPE (cell0) <-> PPE (cell1)
		peer := a.CreateProcessOn(1, "echo", echoCtx, 0, nil)
		ab, ba = a.CreateChannel(main, peer), a.CreateChannel(peer, main)
		body = initCtx
	case Type2: // PPE (cell0) <-> local SPE
		spe := a.CreateSPE(echoSPE, main, 0)
		ab, ba = a.CreateChannel(main, spe), a.CreateChannel(spe, main)
		body = func(c *Ctx) { c.RunSPE(spe, 0, nil); initCtx(c) }
	case Type3: // PPE (cell1) <-> remote SPE (cell0)
		spe := a.CreateSPE(echoSPE, main, 0)
		peer := a.CreateProcessOn(1, "init", func(c *Ctx, _ int, _ any) { initCtx(c) }, 0, nil)
		ab, ba = a.CreateChannel(peer, spe), a.CreateChannel(spe, peer)
		body = func(c *Ctx) { c.RunSPE(spe, 0, nil) }
	case Type4: // SPE <-> SPE, same Cell node
		s1, s2 := a.CreateSPE(initSPE, main, 0), a.CreateSPE(echoSPE, main, 1)
		ab, ba = a.CreateChannel(s1, s2), a.CreateChannel(s2, s1)
		body = func(c *Ctx) { c.RunSPE(s1, 0, nil); c.RunSPE(s2, 0, nil) }
	case Type5: // SPE (cell0) <-> SPE (cell1)
		var s2 *Process
		parent := a.CreateProcessOn(1, "parent", func(c *Ctx, _ int, _ any) { c.RunSPE(s2, 0, nil) }, 0, nil)
		s1 := a.CreateSPE(initSPE, main, 0)
		s2 = a.CreateSPE(echoSPE, parent, 0)
		ab, ba = a.CreateChannel(s1, s2), a.CreateChannel(s2, s1)
		body = func(c *Ctx) { c.RunSPE(s1, 0, nil) }
	}
	if err := a.Run(body); err != nil {
		t.Fatalf("type %d: %v", typ, err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// mpiRoundTrips runs rounds round trips of a size-byte message between
// two ranks on two Cell nodes with raw MPI Send and Recv, and returns the
// heap allocations the whole run made, build included.
func mpiRoundTrips(t *testing.T, rounds, size int) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c, err := cluster.New(cluster.Spec{CellNodes: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(c, []mpi.Placement{{Node: 0, Label: "a"}, {Node: 1, Label: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	c.K.Spawn("a", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			w.Rank(0).Send(p, 1, 0, buf)
			w.Rank(0).Recv(p, 1, 0)
		}
	})
	c.K.Spawn("b", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			data, _ := w.Rank(1).Recv(p, 0, 0)
			w.Rank(1).Send(p, 0, 0, data)
		}
	})
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestMessagePathAllocationBudget: a successful channel operation
// allocates nothing of its own in fmtmsg, core, mpi and cellbe. What is
// left per message is the payload copy that every MPI-carried type makes
// (mpi.concat: the header and payload joined into the message's private
// buffer); a type-4 transfer is a Co-Pilot memcpy and allocates nothing.
// A 64 KiB type-5 message through the chunk engine crosses 17 local-store
// pages at each end; what it allocates is one private copy per chunk frame
// on the wire, and the segment lists and gather buffers it needs are
// reused. A raw-MPI rendezvous message allocates only the receive's
// result buffer. The per-type budget holds as well when every operation
// arms a deadline (OpTimeout), which it cancels on completion, and when
// drop-nothing link policies on node0<->node1 send every remote eager
// frame (types 1, 3 and 5) through the reliability layer. Running R and
// then 2R round trips and taking the difference cancels the cluster and
// App build, which allocate the same either way; the slack absorbs the
// runtime's own occasional allocations.
func TestMessagePathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rounds, slack = 200, 0.25
	perMsg := func(run func(rounds int) uint64) float64 {
		run(1) // first use: format parse, call-site memo
		short := run(rounds)
		long := run(2 * rounds)
		return (float64(long) - float64(short)) / (2 * rounds)
	}
	budget := map[ChannelType]float64{Type1: 1, Type2: 1, Type3: 1, Type4: 0, Type5: 1}
	for _, arm := range []struct {
		name string
		opts func() Options // called per App: an injector serves one run
	}{
		{"unbounded", func() Options { return Options{} }},
		{"OpTimeout", func() Options { return Options{OpTimeout: sim.Second} }},
		{"lossless link policies", func() Options {
			return Options{Faults: fault.NewInjector(fault.Plan{Links: []fault.LinkPolicy{{From: 0, To: 1}, {From: 1, To: 0}}})}
		}},
	} {
		for typ := Type1; typ <= Type5; typ++ {
			got := perMsg(func(n int) uint64 { return roundTrips(t, typ, n, 100, arm.opts()) })
			t.Logf("%s, type %d: %.2f heap allocations per message", arm.name, typ, got)
			if got > budget[typ]+slack {
				t.Errorf("%s, type %d: %.2f heap allocations per message, budget %v", arm.name, typ, got, budget[typ])
			}
		}
	}
	// Eight 8 KiB chunk frames and the stream header. The wider slack
	// covers the wire-buffer pool's refills after each GC cycle (about 0.2
	// per message here); a buffer or list allocated per operation costs at
	// least one more.
	stream := Options{Transfer: TransferOptions{ChunkSize: 8192, PipelineDepth: 4, ZeroCopyType4: true}}
	if got := perMsg(func(n int) uint64 { return roundTrips(t, Type5, n, 4096, stream) }); got > 9+0.5 {
		t.Errorf("64 KiB type 5 through the chunk engine: %.2f heap allocations per message, budget 9", got)
	}
	if got := perMsg(func(n int) uint64 { return mpiRoundTrips(t, n, 64<<10) }); got > 1+slack {
		t.Errorf("64 KiB raw MPI rendezvous: %.2f heap allocations per message, budget 1", got)
	}
}

// TestType4RoundTripBacksOnePagePerStore: a 1600-byte type-4 round trip
// backs the one local-store page each SPE's message buffer lies in, and
// nothing else: no other SPE's store and no main memory.
func TestType4RoundTripBacksOnePagePerStore(t *testing.T) {
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := NewApp(c, Options{})
	var ab, ba *Channel
	buf := make([]fmtmsg.LongDoubleVal, 100)
	s1 := a.CreateSPE(&SPEProgram{Name: "init", Body: func(c *SPECtx) {
		c.Write(ab, "%100Lf", buf)
		c.Read(ba, "%100Lf", buf)
	}}, a.Main(), 0)
	s2 := a.CreateSPE(&SPEProgram{Name: "echo", Body: func(c *SPECtx) {
		c.Read(ab, "%100Lf", buf)
		c.Write(ba, "%100Lf", buf)
	}}, a.Main(), 1)
	ab, ba = a.CreateChannel(s1, s2), a.CreateChannel(s2, s1)
	if err := a.Run(func(c *Ctx) { c.RunSPE(s1, 0, nil); c.RunSPE(s2, 0, nil) }); err != nil {
		t.Fatal(err)
	}
	stores := 0
	for _, n := range c.Nodes {
		if n.Mem.Backed() != 0 {
			t.Errorf("%s main memory: %d bytes backed", n.Name, n.Mem.Backed())
		}
		for _, spe := range n.SPEs() {
			switch b := spe.LS.Backed(); b {
			case 0:
			case cellbe.PageSize:
				stores++
			default:
				t.Errorf("%s: %d bytes backed, want at most one page", spe.Name(), b)
			}
		}
	}
	if stores != 2 {
		t.Errorf("%d local stores backed, want the two endpoints'", stores)
	}
}
