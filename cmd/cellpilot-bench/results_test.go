package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cellpilot/internal/critpath"
)

// resultsDir holds the committed experiment results.
var resultsDir = filepath.Join("..", "..", "results")

// TestResultsRegenerate: results/*.json are exactly what `-exp pingpong
// -out` and `-exp sizesweep -out` write. The files hold virtual-time
// figures only, so any difference is a change in simulated behaviour; on
// a pingpong mismatch the per-type critical-path blame diff names the
// stage that moved. `make bench-json` rewrites the files after an
// intended change.
func TestResultsRegenerate(t *testing.T) {
	dir := t.TempDir()
	runPingPongGrid(defaultReps, nil, dir)
	runSizeSweep(dir)
	for _, name := range []string{"BENCH_pingpong.json", "BLAME_pingpong.json", "BENCH_sizesweep.json"} {
		want, err := os.ReadFile(filepath.Join(resultsDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		t.Errorf("results/%s does not regenerate byte-identically", name)
		if name == "BENCH_pingpong.json" {
			logBlameDiff(t, dir)
		}
	}
}

// logBlameDiff logs, per channel type, how the regenerated blame in dir
// differs from the committed one.
func logBlameDiff(t *testing.T, dir string) {
	base, err := critpath.LoadFile(filepath.Join(resultsDir, "BLAME_pingpong.json"))
	if err != nil {
		t.Logf("no committed blame: %v", err)
		return
	}
	now, err := critpath.LoadFile(filepath.Join(dir, "BLAME_pingpong.json"))
	if err != nil {
		t.Logf("no regenerated blame: %v", err)
		return
	}
	for _, bt := range base.Types {
		nt, ok := now.TypeByName(bt.Type)
		if !ok {
			t.Logf("%s: no transfers analyzed", bt.Type)
			continue
		}
		t.Log("\n" + critpath.FormatDiff(bt.Type, critpath.DiffType(bt, nt)))
	}
}
