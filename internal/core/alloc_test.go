package core

import (
	"runtime"
	"testing"

	"cellpilot/internal/cluster"
	"cellpilot/internal/fmtmsg"
)

// roundTrips runs rounds round trips of a 1600-byte "%100Lf" payload
// (Table II's message) over one channel pair of the given Table I type, on
// the 2-Cell + 1-Xeon machine, and returns the heap allocations the whole
// run made, build included. The payload and the receive buffers are boxed
// once, so the ops' variadic arguments allocate nothing per call.
func roundTrips(t *testing.T, typ ChannelType, rounds int) uint64 {
	t.Helper()
	const format = "%100Lf"
	send := make([]fmtmsg.LongDoubleVal, 100)
	recv := make([]fmtmsg.LongDoubleVal, 100)
	echo := make([]fmtmsg.LongDoubleVal, 100)
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
	a := NewApp(c, Options{})
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

// TestMessagePathAllocationBudget: a successful channel operation
// allocates nothing of its own in fmtmsg, core and mpi. What is left per
// message is the eager payload copy that every MPI-carried type makes
// (mpi.concat: the header and payload joined into the message's private
// buffer); a type-4 transfer is a Co-Pilot memcpy and allocates nothing.
// Running R and then 2R round trips and taking the difference cancels the
// cluster and App build, which allocate the same either way; the slack
// absorbs the runtime's own occasional allocations.
func TestMessagePathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rounds, slack = 200, 0.25
	budget := map[ChannelType]float64{Type1: 1, Type2: 1, Type3: 1, Type4: 0, Type5: 1}
	for typ := Type1; typ <= Type5; typ++ {
		roundTrips(t, typ, 1) // first use: format parse, call-site memo
		short := roundTrips(t, typ, rounds)
		long := roundTrips(t, typ, 2*rounds)
		perMsg := (float64(long) - float64(short)) / (2 * rounds)
		if perMsg > budget[typ]+slack {
			t.Errorf("type %d: %.2f heap allocations per message, budget %v", typ, perMsg, budget[typ])
		}
	}
}
