// Command clusterinfo prints the topology of a simulated hybrid cluster:
// nodes, processors, SPE local stores and the effective-address layout —
// a quick way to see the machine the other tools run on.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, builds the cluster they describe
// and writes its topology to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("clusterinfo", flag.ContinueOnError)
	cellNodes := fs.Int("cells", 8, "Cell blades")
	cellsPer := fs.Int("cells-per-node", 2, "Cell processors per blade")
	xeons := fs.Int("xeons", 4, "conventional nodes")
	cores := fs.Int("cores", 8, "cores per conventional node")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	c, err := cluster.New(cluster.Spec{
		CellNodes: *cellNodes, CellsPerNode: *cellsPer,
		XeonNodes: *xeons, XeonCores: *cores,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cluster: %d nodes, %d SPEs total\n\n", len(c.Nodes), c.TotalSPEs())
	for _, n := range c.Nodes {
		fmt.Fprintf(stdout, "node %d %-8s arch=%-5s cores=%d mem=%dMB\n",
			n.ID, n.Name, n.Arch, n.Cores, n.Mem.Size()>>20)
		for _, cell := range n.Cells {
			fmt.Fprintf(stdout, "  cell %d: PPE + %d SPEs (EIB %.1f GB/s)\n",
				cell.Index, len(cell.SPEs), c.Params.EIBBytesPerSec/1e9)
			for _, spe := range cell.SPEs {
				fmt.Fprintf(stdout, "    spe%-2d LS %3dKB at EA %#x\n",
					spe.GlobalIndex, spe.LS.Size()>>10, spe.LSBase())
			}
		}
	}
	fmt.Fprintf(stdout, "\nSPE local-store budget under each library:\n")
	fmt.Fprintf(stdout, "  CellPilot runtime: %d bytes resident\n", c.Params.CellPilotFootprint)
	fmt.Fprintf(stdout, "  DaCS runtime:      %d bytes resident\n", c.Params.DaCSFootprint)
	fmt.Fprintf(stdout, "  LS map: base %#x, stride %#x per SPE\n", cellbe.LSMapBase, cellbe.LSMapStride)
	return nil
}
