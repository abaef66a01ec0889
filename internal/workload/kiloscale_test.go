package workload

import (
	"runtime"
	"testing"
	"time"
)

// TestKiloscaleSeqParEquivalence is the workload-level parallel-determinism
// gate: the same fleet must fingerprint identically under 1 worker (the
// sequential reference) and several.
func TestKiloscaleSeqParEquivalence(t *testing.T) {
	for _, wl := range []string{"pingpong", "chaos"} {
		base := KiloscaleConfig{Nodes: 24, Workload: wl, Seed: 11, Reps: 3}
		seq := base
		seq.Workers = 1
		par := base
		par.Workers = 4
		rs, err := Kiloscale(seq)
		if err != nil {
			t.Fatalf("%s seq: %v", wl, err)
		}
		rp, err := Kiloscale(par)
		if err != nil {
			t.Fatalf("%s par: %v", wl, err)
		}
		if rs.Fingerprint != rp.Fingerprint {
			t.Fatalf("%s: fingerprints diverge: seq=%s par=%s", wl, rs.Fingerprint, rp.Fingerprint)
		}
		if rs.VirtualTime != rp.VirtualTime || rs.Events != rp.Events {
			t.Fatalf("%s: aggregates diverge: seq=%+v par=%+v", wl, rs, rp)
		}
		if rs.Replicas != 8 || rs.SimNodes != 24 {
			t.Fatalf("%s: tiling wrong: %+v", wl, rs)
		}
		if rs.Events == 0 {
			t.Fatalf("%s: no events counted", wl)
		}
	}
}

// TestKiloscaleRejectsUnknownWorkload: misconfiguration fails loudly.
func TestKiloscaleRejectsUnknownWorkload(t *testing.T) {
	if _, err := Kiloscale(KiloscaleConfig{Nodes: 3, Workload: "nope", Workers: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestKiloscaleRejectsNegativeWorkers: a negative worker count would start
// no goroutine and report an empty fleet; it must fail instead.
func TestKiloscaleRejectsNegativeWorkers(t *testing.T) {
	if res, err := Kiloscale(KiloscaleConfig{Nodes: 3, Workers: -1}); err == nil {
		t.Fatalf("negative worker count accepted: %+v", res)
	}
}

// TestKiloscaleParallelSpeedup asserts the point of running replicas
// concurrently: on a multi-core host the parallel arm must beat the
// sequential arm by >=2x. Hosts with fewer than 4 cores cannot honestly
// make that bet, so the assertion (not the equivalence contract, tested
// above) is skipped there.
func TestKiloscaleParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is wall-clock; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; speedup assertion needs >= 4", runtime.NumCPU())
	}
	cfg := KiloscaleConfig{Nodes: 120, Seed: 5, Reps: 20}
	seq := cfg
	seq.Workers = 1
	par := cfg
	par.Workers = runtime.NumCPU()
	t0 := time.Now()
	rs, err := Kiloscale(seq)
	if err != nil {
		t.Fatal(err)
	}
	seqWall := time.Since(t0)
	t0 = time.Now()
	rp, err := Kiloscale(par)
	if err != nil {
		t.Fatal(err)
	}
	parWall := time.Since(t0)
	if rs.Fingerprint != rp.Fingerprint {
		t.Fatalf("fingerprints diverge: seq=%s par=%s", rs.Fingerprint, rp.Fingerprint)
	}
	if speedup := float64(seqWall) / float64(parWall); speedup < 2 {
		t.Fatalf("parallel speedup %.2fx < 2x (seq %v, par %v, %d workers)",
			speedup, seqWall, parWall, par.Workers)
	}
}
