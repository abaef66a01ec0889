package cluster

import (
	"runtime"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

func TestPaperSpecTopology(t *testing.T) {
	c, err := New(PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(c.Nodes))
	}
	if got := len(c.CellNodesList()); got != 8 {
		t.Fatalf("cell nodes = %d, want 8", got)
	}
	if got := len(c.XeonNodesList()); got != 4 {
		t.Fatalf("xeon nodes = %d, want 4", got)
	}
	if c.TotalSPEs() != 8*16 {
		t.Fatalf("SPEs = %d, want 128", c.TotalSPEs())
	}
	// Cell blades come first and keep stable IDs.
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
}

// TestPaperSpecBuildIsSmall: building the paper's testbed allocates no
// main memory or local-store bytes; those are allocated on first touch.
// The eager build allocated about 839 MB here.
func TestPaperSpecBuildIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(PaperSpec())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb >= 5 {
		t.Fatalf("cluster.New(PaperSpec()) allocated %.1f MB, want under 5 MB", mb)
	}
	runtime.KeepAlive(c)
}

// TestClusterBuildBudget: a build allocates each Cell's eight SPEs'
// hardware as one 2,304-byte block and creates no mailbox queue, MFC tag
// table, name or EIB; a used SPE creates those on first use, and a Cell
// its EIB on its first DMA. The eager build allocated 1,341 bytes and
// 22.5 heap objects per SPE on the 64-blade machine. On the small machine
// the kernel, the network and the Xeon node weigh on 32 SPEs, hence its
// wider budget.
func TestClusterBuildBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range []struct {
		name        string
		spec        Spec
		bytes, objs float64 // budget per SPE
	}{
		{"64 blades (imb64-exchange)", Spec{CellNodes: 64, MemPerNode: 4 << 20, Seed: 5}, 320, 0.6},
		{"2 blades + 1 Xeon", Spec{CellNodes: 2, XeonNodes: 1, Seed: 7}, 540, 1.25},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		clu, err := New(c.spec)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		spes := float64(clu.TotalSPEs())
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / spes
		objs := float64(m1.Mallocs-m0.Mallocs) / spes
		t.Logf("%s: %.1f bytes and %.2f heap objects per SPE", c.name, bytes, objs)
		if bytes > c.bytes || objs > c.objs {
			t.Errorf("%s: %.1f bytes and %.2f heap objects per SPE, budget %v and %v", c.name, bytes, objs, c.bytes, c.objs)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	c, err := New(Spec{CellNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Params == nil || c.Params.LSSize != 256*1024 {
		t.Fatal("default params not applied")
	}
	if len(c.Nodes[0].SPEs()) != 16 {
		t.Fatalf("default CellsPerNode should be 2 (16 SPEs), got %d SPEs", len(c.Nodes[0].SPEs()))
	}
	if _, err := New(Spec{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestNetworkTiming(t *testing.T) {
	par := cellbe.DefaultParams()
	c, err := New(Spec{CellNodes: 2, Params: par})
	if err != nil {
		t.Fatal(err)
	}
	var arrival sim.Time
	c.K.Spawn("sender", func(p *sim.Proc) {
		arrival, _ = c.Net.Send(p, 0, 1, 1600)
	})
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	want := c.Net.OneWayTime(1600)
	if arrival != want {
		t.Fatalf("arrival %s, want %s", arrival, want)
	}
	// Paper-scale sanity: 1600 B one-way should be in the 100-200us band
	// (hand-coded type 1 at 1600B is 160us).
	if arrival < 100*sim.Microsecond || arrival > 200*sim.Microsecond {
		t.Fatalf("1600B one-way %s outside the calibrated band", arrival)
	}
	msgs, bytes := c.Net.Stats()
	if msgs != 1 || bytes != 1600 {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

func TestNetworkContention(t *testing.T) {
	c, err := New(Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a1, a2 sim.Time
	c.K.Spawn("s1", func(p *sim.Proc) { a1, _ = c.Net.Send(p, 0, 1, 100000) })
	c.K.Spawn("s2", func(p *sim.Proc) { a2, _ = c.Net.Send(p, 0, 2, 100000) })
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	if a2 <= a1 {
		t.Fatalf("second transfer on a shared NIC must queue: %s vs %s", a2, a1)
	}
}

func TestSpecRejectsNegativeCounts(t *testing.T) {
	if _, err := New(Spec{CellNodes: -1}); err == nil {
		t.Fatal("negative cell nodes accepted")
	}
	if _, err := New(Spec{CellNodes: 1, XeonNodes: -2}); err == nil {
		t.Fatal("negative xeon nodes accepted")
	}
}

func TestNodeListsPartition(t *testing.T) {
	c, err := New(Spec{CellNodes: 3, XeonNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.CellNodesList())+len(c.XeonNodesList()) != len(c.Nodes) {
		t.Fatal("node lists do not partition the cluster")
	}
	for _, n := range c.CellNodesList() {
		if n.Arch != cellbe.ArchCell {
			t.Fatal("wrong arch in cell list")
		}
	}
}
