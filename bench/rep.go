package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/fault"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// rep is one run of a workload: its inputs, and everything measured while
// it ran. A workload driver wraps its build phase in build and its run
// phase in run, once per cluster it uses.
type rep struct {
	seed   int64
	rounds int
	// traced attaches a stride-1 host profiler to every cluster, so every
	// execution slice is timed, and records spans.
	traced bool
	// bare detaches chaos-observed's observation sinks.
	bare  bool
	spans *spanLog // nil unless traced
	// parent is the span id of the phase in progress.
	parent int

	fp           strings.Builder // the virtual outcome; see checker
	okMsgs       int64           // messages whose payload arrived intact
	crossPayload int64           // payload bytes that crossed the interconnect
	rt           [6][]float64    // host µs per round trip, by flow (channel type; 0 for imb64)
	oneWay       [6]sim.Time     // virtual one-way time per channel type
	iterTime     sim.Time        // virtual time per Exchange iteration
	faults       fault.Counts

	buildNs, clusterNs, runNs int64
	buildBytes, clusterBytes  uint64
	runBytes, runMallocs      uint64
	liveHeap                  uint64
	gcCycles                  uint32
	gcPauseNs                 uint64
	memUsed                   int64 // Σ main-memory InUse + local-store HighWater
	netMsgs                   int64
	netBytes                  int64
	linkUtilMax               float64
	copilotReqs               int64
	copilotUtilMax            float64
	profs                     []*hostprof.Profiler
}

// build times fn as a build phase, after a collection that clears the
// previous cluster's garbage.
func (r *rep) build(fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.parent = r.spans.begin("build", 0)
	t0 := time.Now()
	err := fn()
	r.buildNs += time.Since(t0).Nanoseconds()
	r.spans.end(r.parent)
	runtime.ReadMemStats(&m1)
	r.buildBytes += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// newCluster is cluster.New, timed on its own inside the build phase.
func (r *rep) newCluster(spec cluster.Spec) (*cluster.Cluster, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := r.spans.begin("cluster.New", r.parent)
	t0 := time.Now()
	c, err := cluster.New(spec)
	r.clusterNs += time.Since(t0).Nanoseconds()
	r.spans.end(id)
	runtime.ReadMemStats(&m1)
	r.clusterBytes += m1.TotalAlloc - m0.TotalAlloc
	return c, err
}

// run times fn — App.Run or Kernel.Run — as a run phase.
func (r *rep) run(name string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.parent = r.spans.begin(name, 0)
	t0 := time.Now()
	err := fn()
	r.runNs += time.Since(t0).Nanoseconds()
	r.spans.end(r.parent)
	runtime.ReadMemStats(&m1)
	r.runBytes += m1.TotalAlloc - m0.TotalAlloc
	r.runMallocs += m1.Mallocs - m0.Mallocs
	r.gcCycles += m1.NumGC - m0.NumGC
	r.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	return err
}

// hostProf returns a fresh stride-1 profiler for one cluster of a traced
// rep, or nil.
func (r *rep) hostProf() *hostprof.Profiler {
	if !r.traced {
		return nil
	}
	h := hostprof.New(1)
	r.profs = append(r.profs, h)
	return h
}

// host merges the rep's per-cluster profiles.
func (r *rep) host() hostprof.Snapshot {
	all := hostprof.New(1)
	for _, h := range r.profs {
		all.Absorb(h.Snapshot())
	}
	return all.Snapshot()
}

// noteCluster records a finished cluster's virtual outcome and memory use,
// then measures the live heap while the cluster is still referenced.
func (r *rep) noteCluster(c *cluster.Cluster) {
	msgs, bytes := c.Net.Stats()
	vt := c.K.Now()
	fmt.Fprintf(&r.fp, "vt=%d net=%d/%d\n", int64(vt), msgs, bytes)
	r.netMsgs += int64(msgs)
	r.netBytes += bytes
	for _, l := range c.Net.LinkStats() {
		if vt > 0 {
			r.linkUtilMax = max(r.linkUtilMax, float64(l.Busy)/float64(vt))
		}
	}
	for _, n := range c.Nodes {
		r.memUsed += n.Mem.InUse()
		for _, s := range n.SPEs() {
			r.memUsed += int64(s.LS.HighWater())
		}
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.liveHeap = max(r.liveHeap, m.HeapAlloc)
	runtime.KeepAlive(c)
}

// noteApp is noteCluster plus the Co-Pilot counters of a traced rep
// (App.Stats runs the critical-path analysis when a trace is attached, so
// untraced reps skip it).
func (r *rep) noteApp(a *core.App) {
	if r.traced {
		for _, cp := range a.Stats().CoPilots {
			r.copilotReqs += int64(cp.WriteReqs + cp.ReadReqs)
			r.copilotUtilMax = max(r.copilotUtilMax, cp.Utilization)
		}
	}
	r.noteCluster(a.Clu)
}
