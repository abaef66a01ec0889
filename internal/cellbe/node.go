package cellbe

import (
	"fmt"

	"cellpilot/internal/sim"
)

// LS mapping constants: each SPE's local store is mapped into the node's
// effective-address space (spe_ls_area_get), at LSMapBase plus a 1 MB
// stride per SPE. Main memory occupies low addresses.
const (
	LSMapBase   int64 = 0x3_0000_0000
	LSMapStride int64 = 0x10_0000
)

// SPE is one Synergistic Processor Element.
type SPE struct {
	Cell        *Cell
	Index       int // within its Cell (0..7)
	GlobalIndex int // within its Node
	LS          *LocalStore
	MFC         *MFC
	// InMbox is the PPE→SPE mailbox (4 entries on real hardware).
	InMbox *Mailbox
	// OutMbox is the SPE→PPE mailbox (1 entry).
	OutMbox *Mailbox
	// SNR1 and SNR2 are the signal-notification registers: SNR1 in OR
	// mode (many senders, one bit each), SNR2 in overwrite mode, the
	// usual Linux-on-Cell configuration.
	SNR1, SNR2 *Signal
	// Busy marks the SPE as running a context.
	Busy bool
}

// Name identifies the SPE in traces and errors.
func (s *SPE) Name() string {
	return fmt.Sprintf("%s/spe%d", s.Cell.Node.Name, s.GlobalIndex)
}

// LSBase reports the effective address at which this SPE's local store is
// mapped into the node's address space.
func (s *SPE) LSBase() int64 {
	return LSMapBase + int64(s.GlobalIndex)*LSMapStride
}

// Cell is one Cell BE processor: a PPE (with two hardware threads) and
// eight SPEs around the Element Interconnect Bus.
type Cell struct {
	Node  *Node
	Index int
	SPEs  []*SPE
	// EIB is the on-chip interconnect all LS↔memory traffic crosses.
	EIB *sim.Resource
}

// Node is one cluster machine: a Cell blade (Cells populated) or an x86
// box (no Cells). All processors on a node share Mem and one EA space.
type Node struct {
	ID     int
	Name   string
	Arch   Arch
	Params *Params
	Mem    *Memory
	Cells  []*Cell
	// Cores is the number of rank-hosting general-purpose processors:
	// PPEs for a blade, cores for an x86 node.
	Cores int
}

// NewCellNode builds a Cell blade with nCells processors (the paper's
// nodes are dual PowerXCell 8i, so nCells=2), 8 SPEs each.
func NewCellNode(k *sim.Kernel, id int, name string, nCells int, par *Params, memSize int) *Node {
	n := &Node{ID: id, Name: name, Arch: ArchCell, Params: par, Mem: NewMemory(memSize), Cores: nCells}
	for c := 0; c < nCells; c++ {
		cell := &Cell{
			Node:  n,
			Index: c,
			EIB:   sim.NewResource(k, fmt.Sprintf("%s/eib%d", name, c), par.EIBStartup, par.EIBBytesPerSec, 0),
		}
		for s := 0; s < 8; s++ {
			spe := &SPE{
				Cell:        cell,
				Index:       s,
				GlobalIndex: c*8 + s,
				LS:          NewLocalStore(par.LSSize),
				InMbox:      NewMailbox(k, fmt.Sprintf("%s/spe%d/in", name, c*8+s), 4, par),
				OutMbox:     NewMailbox(k, fmt.Sprintf("%s/spe%d/out", name, c*8+s), 1, par),
				SNR1:        NewSignal(k, fmt.Sprintf("%s/spe%d/snr1", name, c*8+s), SignalOR, par),
				SNR2:        NewSignal(k, fmt.Sprintf("%s/spe%d/snr2", name, c*8+s), SignalOverwrite, par),
			}
			spe.MFC = &MFC{spe: spe}
			cell.SPEs = append(cell.SPEs, spe)
		}
		n.Cells = append(n.Cells, cell)
	}
	return n
}

// NewX86Node builds a conventional node with the given core count.
func NewX86Node(id int, name string, cores int, par *Params, memSize int) *Node {
	return &Node{ID: id, Name: name, Arch: ArchX86, Params: par, Mem: NewMemory(memSize), Cores: cores}
}

// SPEs enumerates every SPE on the node in global order.
func (n *Node) SPEs() []*SPE {
	var out []*SPE
	for _, c := range n.Cells {
		out = append(out, c.SPEs...)
	}
	return out
}

// SPE returns the SPE with the given node-global index.
func (n *Node) SPE(global int) (*SPE, error) {
	c := global / 8
	if c < 0 || c >= len(n.Cells) {
		return nil, fmt.Errorf("cellbe: node %s has no SPE %d", n.Name, global)
	}
	return n.Cells[c].SPEs[global%8], nil
}

// EASegments resolves an effective-address range to the pages that back
// it, appended to dst: main memory for low addresses, or a memory-mapped
// SPE local store. This is the mechanism CellPilot's Co-Pilot exploits to
// move SPE data without DMA.
func (n *Node) EASegments(ea int64, size int, dst [][]byte) ([][]byte, error) {
	if ea < 0 || size < 0 {
		return dst, fmt.Errorf("cellbe: bad EA range [%#x,+%d)", ea, size)
	}
	if ea < LSMapBase {
		return n.Mem.Segments(ea, size, dst)
	}
	idx := (ea - LSMapBase) / LSMapStride
	off := (ea - LSMapBase) % LSMapStride
	spe, err := n.SPE(int(idx))
	if err != nil {
		return dst, fmt.Errorf("cellbe: EA %#x maps to no SPE on %s", ea, n.Name)
	}
	if off+int64(size) > int64(spe.LS.Size()) {
		return dst, fmt.Errorf("cellbe: EA range [%#x,+%d) exceeds %s local store", ea, size, spe.Name())
	}
	return spe.LS.Segments(uint32(off), size, dst)
}

// IsLSMapped reports whether ea falls in the local-store mapping region.
func IsLSMapped(ea int64) bool { return ea >= LSMapBase }
