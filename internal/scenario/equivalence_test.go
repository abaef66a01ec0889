package scenario

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cellpilot/internal/sim"
)

// The scenario library is the kernel's broadest regression surface: nine
// files spanning every workload kind, fault plan and assertion the DSL
// can express. These suites run the whole fleet under the alternate
// kernel configurations — heap vs calendar event queue, one at a time vs
// all at once on concurrent goroutines — and demand bit-for-bit identical
// fingerprints. Quick mode is fine here: both arms of each comparison
// run the same shape, so equivalence (unlike golden comparison) holds.

// fingerprint runs one library scenario once, in quick mode, and returns
// its fingerprint.
func fingerprint(file string) (string, error) {
	s, err := Load(file)
	if err != nil {
		return "", fmt.Errorf("%s: %w", file, err)
	}
	o, err := runOnce(s, Options{Quick: true})
	if err != nil {
		return "", fmt.Errorf("%s: %w", file, err)
	}
	return o.Fingerprint, nil
}

// fleetFingerprints runs every library scenario once (no determinism
// re-runs — the comparison across arms is the determinism check) and
// returns file -> fingerprint.
func fleetFingerprints(files []string) (map[string]string, error) {
	out := make(map[string]string, len(files))
	for _, f := range files {
		fp, err := fingerprint(f)
		if err != nil {
			return nil, err
		}
		out[f] = fp
	}
	return out, nil
}

// TestScenarioFleetQueueKindEquivalence: every checked-in scenario must
// fingerprint identically under the calendar queue (the default) and the
// original heap queue.
func TestScenarioFleetQueueKindEquivalence(t *testing.T) {
	files, err := ListFiles("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	cal, err := fleetFingerprints(files)
	if err != nil {
		t.Fatal(err)
	}
	prev := sim.SetDefaultQueueKind(sim.QueueHeap)
	hp, err := fleetFingerprints(files)
	sim.SetDefaultQueueKind(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if cal[f] != hp[f] {
			t.Errorf("%s: queue kinds diverge:\n%s", f, firstDiff(cal[f], hp[f]))
		}
	}
}

// TestScenarioFleetShardedEquivalence: the whole library executed at once,
// one goroutine per scenario contending for however many cores the host
// has, must reproduce the one-at-a-time fingerprints exactly.
func TestScenarioFleetShardedEquivalence(t *testing.T) {
	files, err := ListFiles("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fleetFingerprints(files)
	if err != nil {
		t.Fatal(err)
	}
	par := make([]string, len(files))
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[i], errs[i] = fingerprint(f)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		if par[i] != seq[f] {
			t.Errorf("%s: concurrent run diverges from sequential:\n%s", f, firstDiff(seq[f], par[i]))
		}
	}
}
