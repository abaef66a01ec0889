// Package cluster assembles simulated hybrid clusters: Cell BE blades plus
// conventional x86 nodes on a gigabit interconnect, matching the paper's
// testbed (8 dual-PowerXCell 8i blades + 4 Xeon nodes).
package cluster

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/interconnect"
	"cellpilot/internal/sim"
)

// Spec describes a cluster to build.
type Spec struct {
	// CellNodes is the number of Cell blades.
	CellNodes int
	// CellsPerNode is Cell processors per blade (paper: 2 = dual
	// PowerXCell 8i, 16 SPEs per blade).
	CellsPerNode int
	// XeonNodes is the number of conventional nodes.
	XeonNodes int
	// XeonCores is cores per conventional node.
	XeonCores int
	// MemPerNode is main memory bytes per node (default 64 MB — plenty for
	// simulated message buffers).
	MemPerNode int
	// Params overrides the timing calibration (nil = DefaultParams).
	Params *cellbe.Params
	// Seed feeds the simulation kernel's deterministic RNG.
	Seed int64
}

// PaperSpec is the testbed of the paper's Section V: 8 dual-PowerXCell
// blades and 4 Xeon nodes on gigabit Ethernet.
func PaperSpec() Spec {
	return Spec{CellNodes: 8, CellsPerNode: 2, XeonNodes: 4, XeonCores: 8, Seed: 1}
}

func (s Spec) withDefaults() Spec {
	if s.CellsPerNode == 0 {
		s.CellsPerNode = 2
	}
	if s.XeonCores == 0 {
		s.XeonCores = 4
	}
	if s.MemPerNode == 0 {
		s.MemPerNode = 64 << 20
	}
	if s.Params == nil {
		s.Params = cellbe.DefaultParams()
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Cluster is a built machine: the simulation kernel, all nodes (Cell
// blades first, then x86), and the interconnect.
type Cluster struct {
	K      *sim.Kernel
	Spec   Spec
	Params *cellbe.Params
	Nodes  []*cellbe.Node
	Net    *interconnect.Network
}

// New builds a cluster from spec.
func New(spec Spec) (*Cluster, error) {
	spec = spec.withDefaults()
	if spec.CellNodes < 0 || spec.XeonNodes < 0 || spec.CellNodes+spec.XeonNodes == 0 {
		return nil, fmt.Errorf("cluster: need at least one node (spec %+v)", spec)
	}
	k := sim.NewKernel(spec.Seed)
	c := &Cluster{K: k, Spec: spec, Params: spec.Params}
	id := 0
	for i := 0; i < spec.CellNodes; i++ {
		c.Nodes = append(c.Nodes, cellbe.NewCellNode(
			id, fmt.Sprintf("cell%d", i), spec.CellsPerNode, spec.Params, spec.MemPerNode))
		id++
	}
	for i := 0; i < spec.XeonNodes; i++ {
		c.Nodes = append(c.Nodes, cellbe.NewX86Node(
			id, fmt.Sprintf("xeon%d", i), spec.XeonCores, spec.Params, spec.MemPerNode))
		id++
	}
	c.Net = interconnect.New(k, spec.Params, len(c.Nodes))
	return c, nil
}

// CellNodesList returns just the Cell blades.
func (c *Cluster) CellNodesList() []*cellbe.Node {
	var out []*cellbe.Node
	for _, n := range c.Nodes {
		if n.Arch == cellbe.ArchCell {
			out = append(out, n)
		}
	}
	return out
}

// XeonNodesList returns just the conventional nodes.
func (c *Cluster) XeonNodesList() []*cellbe.Node {
	var out []*cellbe.Node
	for _, n := range c.Nodes {
		if n.Arch == cellbe.ArchX86 {
			out = append(out, n)
		}
	}
	return out
}

// TotalSPEs counts SPEs across the cluster.
func (c *Cluster) TotalSPEs() int {
	t := 0
	for _, n := range c.Nodes {
		t += len(n.SPEs())
	}
	return t
}
