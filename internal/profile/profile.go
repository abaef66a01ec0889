// Package profile attributes virtual time. It folds every process's
// timeline into exclusive buckets — compute, pack, mailbox traffic and
// waits, Co-Pilot service, data moves, MPI legs, fault backoff — so a
// whole run answers "where did the virtual time go?" at a glance. The
// runtime hands over each process's lifetime and its time in each
// transfer phase kind when a run ends, so profiling costs no virtual
// time. The attribution exports as folded-stack text (for flamegraph
// tools) and as a pprof-compatible profile (for `go tool pprof` and
// speedscope).
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cellpilot/internal/sim"
)

// Every nanosecond of a process's lifetime lands in exactly one bucket. A
// bucket is named after the transfer phase kind it sums (trace.PhaseKind's
// String: "pack", "mbox-req", "copy", ...), except these two.
const (
	// BucketCompute is the remainder after the phase buckets are
	// subtracted from the lifetime.
	BucketCompute = "compute"
	// BucketFaultBackoff is the fault-protocol repost time split off a
	// stub's mailbox requests.
	BucketFaultBackoff = "fault-backoff"
)

// procProfile is one process's attribution state.
type procProfile struct {
	start   sim.Time
	end     sim.Time
	buckets map[string]sim.Time
}

// Profiler accumulates per-process virtual-time attribution. It is used
// from simulation context only (single-threaded by construction), with
// read-out after the run completes.
type Profiler struct {
	procs map[string]*procProfile
	order []string
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{procs: map[string]*procProfile{}}
}

func (p *Profiler) proc(name string) *procProfile {
	pp, ok := p.procs[name]
	if !ok {
		pp = &procProfile{buckets: map[string]sim.Time{}}
		p.procs[name] = pp
		p.order = append(p.order, name)
	}
	return pp
}

// SetLifetime records a process's [start, end] on the virtual timeline;
// its compute bucket is the part no other bucket covers. The runtime sets
// every lifetime once, when the run ends.
func (p *Profiler) SetLifetime(name string, start, end sim.Time) {
	pp := p.proc(name)
	pp.start, pp.end = start, end
}

// Attribute charges d of the process's time to the named bucket.
// Non-positive durations are ignored.
func (p *Profiler) Attribute(name, bucket string, d sim.Time) {
	if p == nil || d <= 0 {
		return
	}
	p.proc(name).buckets[bucket] += d
}

// Procs returns the profiled process names, sorted.
func (p *Profiler) Procs() []string {
	if p == nil {
		return nil
	}
	out := append([]string(nil), p.order...)
	sort.Strings(out)
	return out
}

// Buckets returns one process's exclusive attribution, including the
// derived compute remainder. The map is a copy.
func (p *Profiler) Buckets(name string) map[string]sim.Time {
	if p == nil {
		return nil
	}
	pp, ok := p.procs[name]
	if !ok {
		return nil
	}
	out := make(map[string]sim.Time, len(pp.buckets)+1)
	var attributed sim.Time
	for b, d := range pp.buckets {
		out[b] = d
		attributed += d
	}
	if compute := pp.end - pp.start - attributed; compute > 0 {
		out[BucketCompute] = compute
	}
	return out
}

// Lifetime reports a process's [start, end] on the virtual timeline.
func (p *Profiler) Lifetime(name string) (start, end sim.Time, ok bool) {
	if p == nil {
		return 0, 0, false
	}
	pp, found := p.procs[name]
	if !found {
		return 0, 0, false
	}
	return pp.start, pp.end, true
}

// FoldedStacks writes the attribution in folded-stack form — one
// "proc;bucket <nanoseconds>" line per non-empty bucket, sorted — the
// input format of flamegraph.pl, inferno, and speedscope.
func (p *Profiler) FoldedStacks(w io.Writer) error {
	for _, name := range p.Procs() {
		buckets := p.Buckets(name)
		keys := make([]string, 0, len(buckets))
		for b := range buckets {
			keys = append(keys, b)
		}
		sort.Strings(keys)
		for _, b := range keys {
			if buckets[b] <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s;%s %d\n", name, b, int64(buckets[b])); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report renders a human-readable per-process table: each bucket's share
// of the process lifetime, largest first.
func (p *Profiler) Report() string {
	var b strings.Builder
	for _, name := range p.Procs() {
		start, end, _ := p.Lifetime(name)
		life := end - start
		fmt.Fprintf(&b, "%s (lifetime %s)\n", name, life)
		buckets := p.Buckets(name)
		type row struct {
			bucket string
			d      sim.Time
		}
		rows := make([]row, 0, len(buckets))
		for bk, d := range buckets {
			if d > 0 {
				rows = append(rows, row{bk, d})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].d != rows[j].d {
				return rows[i].d > rows[j].d
			}
			return rows[i].bucket < rows[j].bucket
		})
		for _, r := range rows {
			pct := 0.0
			if life > 0 {
				pct = 100 * float64(r.d) / float64(life)
			}
			fmt.Fprintf(&b, "  %-16s %12s  %5.1f%%\n", r.bucket, r.d, pct)
		}
	}
	return b.String()
}
