package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

func TestAttributionAndComputeRemainder(t *testing.T) {
	p := New()
	p.Attribute("worker", "pack", 30)
	p.Attribute("worker", "mpi-send", 50)
	p.Attribute("worker", "pack", 10) // accumulates
	p.Attribute("worker", "copy", 0)  // ignored
	p.Attribute("worker", "copy", -5) // ignored
	p.SetLifetime("worker", 100, 300)

	b := p.Buckets("worker")
	if b["pack"] != 40 || b["mpi-send"] != 50 {
		t.Fatalf("buckets = %v", b)
	}
	// compute = 200 lifetime - 90 attributed
	if b[BucketCompute] != 110 {
		t.Fatalf("compute = %v, want 110", b[BucketCompute])
	}
	if _, ok := b["copy"]; ok {
		t.Fatal("zero-duration bucket materialized")
	}
	start, end, ok := p.Lifetime("worker")
	if !ok || start != 100 || end != 300 {
		t.Fatalf("Lifetime = %v..%v ok=%v", start, end, ok)
	}
}

func TestOverAttributedClampsCompute(t *testing.T) {
	p := New()
	p.Attribute("w", "relay", 500)
	p.SetLifetime("w", 0, 100) // attributed exceeds lifetime (overlapping phases)
	b := p.Buckets("w")
	if _, ok := b[BucketCompute]; ok {
		t.Fatalf("negative compute surfaced: %v", b)
	}
}

func TestFoldedStacksFormat(t *testing.T) {
	p := New()
	p.Attribute("b-proc", "mbox-wait", 70)
	p.SetLifetime("b-proc", 0, 100)
	p.Attribute("a-proc", "pack", 25)
	p.SetLifetime("a-proc", 0, 25) // fully attributed: no compute line
	var buf bytes.Buffer
	if err := p.FoldedStacks(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a-proc;pack 25\nb-proc;compute 30\nb-proc;mbox-wait 70\n"
	if buf.String() != want {
		t.Fatalf("folded stacks:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestReportSortsByDuration(t *testing.T) {
	p := New()
	p.Attribute("w", "pack", 10)
	p.Attribute("w", "mpi-wait", 80)
	p.SetLifetime("w", 0, 100)
	rep := p.Report()
	if !strings.Contains(rep, "w (lifetime 100ns)") {
		t.Fatalf("report header missing:\n%s", rep)
	}
	if strings.Index(rep, "mpi-wait") > strings.Index(rep, "pack") {
		t.Fatalf("buckets not sorted by duration:\n%s", rep)
	}
	if !strings.Contains(rep, "80.0%") {
		t.Fatalf("percentage missing:\n%s", rep)
	}
}

func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.Attribute("x", "pack", 1)
	if p.Procs() != nil || p.Buckets("x") != nil {
		t.Fatal("nil profiler is not inert")
	}
	if _, _, ok := p.Lifetime("x"); ok {
		t.Fatal("nil profiler reported a lifetime")
	}
}

// The pprof export must be a gzipped protobuf whose string table carries
// the process and bucket names; `go tool pprof` parses it (verified
// manually), here we check the container and the embedded strings.
func TestWritePprof(t *testing.T) {
	p := New()
	p.Attribute("worker#0", "mbox-wait", 700*sim.Microsecond)
	p.Attribute("worker#0", "pack", 100*sim.Microsecond)
	p.SetLifetime("worker#0", 0, sim.Millisecond)
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("pprof output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty profile")
	}
	for _, want := range []string{"worker#0", "mbox-wait", "pack", "compute", "virtual", "nanoseconds", "cellpilot-virtual"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile string table lacks %q", want)
		}
	}
}

func TestWritePprofEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WritePprof(&buf); err != nil {
		t.Fatalf("empty profiler WritePprof: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no gzip container written")
	}
}
