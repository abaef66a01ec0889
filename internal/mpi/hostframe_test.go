package mpi

import (
	"testing"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// TestHostFramePerEntryPoint: every MPI entry point opens exactly one
// host-profiler frame, so the profiler's mpi calls count calls into the
// layer and the host time spent inside one is charged to it. Rank 2, on
// another node, sends rank 0 two one-byte messages at t=0; rank 0 makes
// the call under test at 1 ms, once both have landed, so no delivery's
// frame falls inside it.
func TestHostFramePerEntryPoint(t *testing.T) {
	one := func() []byte { return []byte{1} }
	var q *Request
	irecv := func(p *sim.Proc, r *Rank) { q = r.Irecv(p, 2, 0) }
	cases := []struct {
		name string
		// pre, if set, runs at t=0: Wait and Test complete a receive
		// posted before the messages land.
		pre, call func(p *sim.Proc, r *Rank)
	}{
		{"Send", nil, func(p *sim.Proc, r *Rank) { r.Send(p, 2, 0, one()) }},
		{"SendCtl", nil, func(p *sim.Proc, r *Rank) { r.SendCtl(p, 2, 0, one(), Ctl{}) }},
		{"SendVec", nil, func(p *sim.Proc, r *Rank) { r.SendVec(p, 2, 0, one()) }},
		{"SendVecCtl", nil, func(p *sim.Proc, r *Rank) { r.SendVecCtl(p, 2, 0, Ctl{}, one()) }},
		{"Isend", nil, func(p *sim.Proc, r *Rank) { r.Isend(p, 2, 0, one()) }},
		{"IsendVec", nil, func(p *sim.Proc, r *Rank) { r.IsendVec(p, 2, 0, one()) }},
		{"SendChunk", nil, func(p *sim.Proc, r *Rank) { r.SendChunk(p, 2, 0, one()) }},
		{"Recv", nil, func(p *sim.Proc, r *Rank) { r.Recv(p, 2, 0) }},
		{"RecvInto", nil, func(p *sim.Proc, r *Rank) { r.RecvInto(p, 2, 0, make([]byte, 1)) }},
		{"RecvIntoVec", nil, func(p *sim.Proc, r *Rank) { r.RecvIntoVec(p, 2, 0, make([]byte, 1)) }},
		{"RecvCtl", nil, func(p *sim.Proc, r *Rank) { r.RecvCtl(p, 2, 0, Ctl{}) }},
		{"Irecv", nil, func(p *sim.Proc, r *Rank) { r.Irecv(p, 2, 0) }},
		{"IrecvInto", nil, func(p *sim.Proc, r *Rank) { r.IrecvInto(p, 2, 0, make([]byte, 1)) }},
		{"Wait", irecv, func(p *sim.Proc, r *Rank) { r.Wait(p, q) }},
		{"Test", irecv, func(p *sim.Proc, r *Rank) { r.Test(p, q) }},
		{"Probe", nil, func(p *sim.Proc, r *Rank) { r.Probe(p, 2, 0) }},
		{"ProbeMulti", nil, func(p *sim.Proc, r *Rank) { r.ProbeMulti(p, []ProbeSpec{{Src: 2, Tag: 0}}) }},
		{"Iprobe", nil, func(p *sim.Proc, r *Rank) { r.Iprobe(p, 2, 0) }},
	}
	for _, tc := range cases {
		c, w := newWorld(t)
		prof := hostprof.New(1)
		w.Host = prof
		var frames uint64
		c.K.Spawn("r2", func(p *sim.Proc) {
			w.Rank(2).Send(p, 0, 0, one())
			w.Rank(2).Send(p, 0, 0, one())
		})
		c.K.Spawn("r0", func(p *sim.Proc) {
			if tc.pre != nil {
				tc.pre(p, w.Rank(0))
			}
			p.Advance(sim.Millisecond)
			before := mpiFrames(prof)
			tc.call(p, w.Rank(0))
			frames = mpiFrames(prof) - before
		})
		run(t, c)
		if frames != 1 {
			t.Errorf("%s opened %d mpi host frames, want 1", tc.name, frames)
		}
	}
}

// mpiFrames reports how many mpi frames prof has seen opened.
func mpiFrames(prof *hostprof.Profiler) uint64 {
	for _, s := range prof.Snapshot().Subsystems {
		if s.Name == hostprof.SubsysMPI.String() {
			return s.Calls
		}
	}
	return 0
}
