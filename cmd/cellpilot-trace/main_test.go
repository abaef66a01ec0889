package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportsByteIdentical runs the command with every report and export
// on and compares the SHA-256 of stdout and of each written file with the
// digests recorded before the span log's storage was made compact, so a
// change to how spans, events, the timeline or the metrics are kept cannot
// move a byte of what the command prints or writes. Stdout echoes the
// output paths; the temporary directory is replaced by "OUT" before
// hashing.
func TestExportsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	files := []struct{ flag, name string }{
		{"-chrome", "c.json"}, {"-json", "e.jsonl"}, {"-metrics", "m.json"}, {"-folded", "f.folded"},
	}
	args := []string{"-top", "-timeline", "-flows", "-critpath"}
	for _, f := range files {
		args = append(args, f.flag, filepath.Join(dir, f.name))
	}
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"stdout": digest([]byte(strings.ReplaceAll(stdout.String(), dir, "OUT"))),
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		got[f.name] = digest(data)
	}
	want := map[string]string{
		"stdout":   "0d06be5322d34e2710d84a46c93e03a61133c9df40969e568c41b5abe8acfcca",
		"c.json":   "ca54143862bd68f2d64c54ecbeffa45e16aa987b664b5439433267216f3de7ff",
		"e.jsonl":  "7b489550595639b72445ba5b5472a1c9b9be7b91b8386dba09ff3dd07d88fc0a",
		"m.json":   "38475b11332653160cee6cf3e3798b5b25531f933c848bcb32ede06d4e8fe921",
		"f.folded": "fea706de7d454a37137dc792bf5ac5f00b0417457d947b401c4c1a4ed09ec316",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
