package cellbe

import (
	"fmt"
	"strconv"

	"cellpilot/internal/sim"
)

// LS mapping constants: each SPE's local store is mapped into the node's
// effective-address space (spe_ls_area_get), at LSMapBase plus a 1 MB
// stride per SPE. Main memory occupies low addresses.
const (
	LSMapBase   int64 = 0x3_0000_0000
	LSMapStride int64 = 0x10_0000
)

// SPE is one Synergistic Processor Element. Its hardware lives in its
// Cell's block (see NewCellNode): the pointer fields point into it.
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

// Name identifies the SPE in traces and errors, as in "cell0/spe3".
func (s *SPE) Name() string { return s.name("") }

// name is the SPE's name followed by suffix, built in one allocation.
func (s *SPE) name(suffix string) string {
	return s.Cell.Node.Name + "/spe" + strconv.Itoa(s.GlobalIndex) + suffix
}

// params is the node's timing calibration, which the SPE's parts charge.
func (s *SPE) params() *Params { return s.Cell.Node.Params }

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
	eib   *sim.Resource // see EIB
}

// EIB is the on-chip interconnect all LS↔memory traffic crosses. It is
// built on the Cell's first DMA, on the kernel of the proc issuing it, so
// a Cell that never moves data by DMA holds no bus.
func (c *Cell) EIB(p *sim.Proc) *sim.Resource {
	if c.eib == nil {
		par := c.Node.Params
		c.eib = sim.NewResource(p.Kernel(), c.Node.Name+"/eib"+strconv.Itoa(c.Index), par.EIBStartup, par.EIBBytesPerSec, 0)
	}
	return c.eib
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

// cellBlock is one Cell and its eight SPEs' hardware, held by value so
// that a Cell costs one host allocation. Each part keeps only its own
// state and a pointer to its SPE, through which it reaches the node's
// Params and name; the parts a used SPE needs (mailbox queues, the MFC
// tag table, names) are created on first use.
type cellBlock struct {
	cell Cell
	spes [8]*SPE
	hw   [8]struct {
		spe        SPE
		ls         LocalStore
		mfc        MFC
		in, out    Mailbox
		snr1, snr2 Signal
	}
}

// NewCellNode builds a Cell blade with nCells processors (the paper's
// nodes are dual PowerXCell 8i, so nCells=2), 8 SPEs each.
func NewCellNode(id int, name string, nCells int, par *Params, memSize int) *Node {
	n := &Node{ID: id, Name: name, Arch: ArchCell, Params: par, Mem: NewMemory(memSize), Cores: nCells}
	for c := 0; c < nCells; c++ {
		b := new(cellBlock)
		b.cell = Cell{Node: n, Index: c, SPEs: b.spes[:]}
		for s := range b.hw {
			hw := &b.hw[s]
			spe := &hw.spe
			*spe = SPE{
				Cell:        &b.cell,
				Index:       s,
				GlobalIndex: c*8 + s,
				LS:          &hw.ls,
				MFC:         &hw.mfc,
				InMbox:      &hw.in,
				OutMbox:     &hw.out,
				SNR1:        &hw.snr1,
				SNR2:        &hw.snr2,
			}
			hw.ls.size = par.LSSize
			hw.mfc.spe, hw.in.spe, hw.out.spe, hw.snr1.spe, hw.snr2.spe = spe, spe, spe, spe, spe
			b.spes[s] = spe
		}
		n.Cells = append(n.Cells, &b.cell)
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
	spe, off, err := n.resolveEA(ea, size)
	switch {
	case err != nil:
		return dst, err
	case spe == nil:
		return n.Mem.Segments(ea, size, dst)
	}
	return spe.LS.Segments(uint32(off), size, dst)
}

// resolveEA checks an effective-address range without backing a page. It
// reports the SPE whose mapped local store holds the range and the
// range's offset there, or a nil SPE for main memory.
func (n *Node) resolveEA(ea int64, size int) (*SPE, int64, error) {
	if ea < 0 || size < 0 {
		return nil, 0, fmt.Errorf("cellbe: bad EA range [%#x,+%d)", ea, size)
	}
	if ea < LSMapBase {
		return nil, ea, n.Mem.Check(ea, size)
	}
	idx := (ea - LSMapBase) / LSMapStride
	off := (ea - LSMapBase) % LSMapStride
	spe, err := n.SPE(int(idx))
	if err != nil {
		return nil, 0, fmt.Errorf("cellbe: EA %#x maps to no SPE on %s", ea, n.Name)
	}
	if off+int64(size) > int64(spe.LS.Size()) {
		return nil, 0, fmt.Errorf("cellbe: EA range [%#x,+%d) exceeds %s local store", ea, size, spe.Name())
	}
	return spe, off, nil
}

// IsLSMapped reports whether ea falls in the local-store mapping region.
func IsLSMapped(ea int64) bool { return ea >= LSMapBase }
