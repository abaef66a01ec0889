// Package cellbe models Cell Broadband Engine nodes — PPEs, SPEs with
// 256 KB local stores, mailboxes, MFC/DMA engines and the Element
// Interconnect Bus — plus plain x86 nodes, at the functional and timing
// fidelity the CellPilot protocols need. Data really moves through the
// simulated memories; latencies are charged in virtual time from a single
// calibrated Params table.
package cellbe

import "fmt"

// Arch identifies a node's instruction-set architecture. It drives wire
// conversion (Cell is big-endian, x86 little-endian) and processor
// enumeration.
type Arch int

const (
	// ArchCell is a Cell BE blade: PPEs plus SPE accelerators, big-endian.
	ArchCell Arch = iota
	// ArchX86 is a conventional node (the paper's Xeons), little-endian.
	ArchX86
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case ArchCell:
		return "cell"
	case ArchX86:
		return "x86"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// BigEndian reports whether the architecture's native byte order is
// big-endian (the Pilot wire format).
func (a Arch) BigEndian() bool { return a == ArchCell }

// ProcKind classifies a processor within a node.
type ProcKind int

const (
	// KindPPE is a Cell Power Processor Element (or one of its hardware
	// threads): runs Linux, hosts MPI ranks.
	KindPPE ProcKind = iota
	// KindSPE is a Synergistic Processor Element: 256 KB local store, no
	// direct access to main memory except through the MFC.
	KindSPE
	// KindCore is a conventional (x86) core; hosts MPI ranks.
	KindCore
)

// String implements fmt.Stringer.
func (k ProcKind) String() string {
	switch k {
	case KindPPE:
		return "PPE"
	case KindSPE:
		return "SPE"
	case KindCore:
		return "core"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Align rounds n up to the next multiple of a (a must be a power of two).
func Align(n, a int) int {
	return (n + a - 1) &^ (a - 1)
}

// validAlign reports whether a is an alignment Align can honour: a
// positive power of two.
func validAlign(a int) bool { return a > 0 && a&(a-1) == 0 }

// IsAligned reports whether addr is a multiple of a (a power of two).
func IsAligned(addr int64, a int) bool {
	return addr&int64(a-1) == 0
}
