package cellbe

import (
	"fmt"

	"cellpilot/internal/sim"
)

// MFC is an SPE's Memory Flow Controller: the DMA engine that moves data
// between the local store and the node's effective-address space over the
// EIB. Transfers are tagged; TagWait blocks until every transfer issued
// under the tag mask has completed. The model enforces the Cell's alignment
// and size rules and performs the byte copy at issue time, with completion
// time computed from EIB occupancy.
type MFC struct {
	spe *SPE
	// completion[tag] is the virtual time the last transfer on tag
	// finishes. The table is created by the first DMA command, so an MFC
	// no program uses holds none.
	completion *[numTags]sim.Time
}

// numTags is the number of MFC tag groups.
const numTags = 32

// complete records that a transfer on tag finishes at done.
func (m *MFC) complete(tag int, done sim.Time) {
	if m.completion == nil {
		m.completion = new([numTags]sim.Time)
	}
	if done > m.completion[tag] {
		m.completion[tag] = done
	}
}

// MaxDMASize is the Cell's per-command DMA transfer limit.
const MaxDMASize = 16 * 1024

// checkDMA validates the Cell DMA rules: size 1,2,4,8 naturally aligned, or
// a multiple of 16 with both addresses 16-byte aligned, and at most 16 KB.
func checkDMA(lsAddr uint32, ea int64, size int) error {
	if size <= 0 || size > MaxDMASize {
		return fmt.Errorf("cellbe: DMA size %d out of range (1..%d)", size, MaxDMASize)
	}
	switch size {
	case 1, 2, 4, 8:
		if !IsAligned(int64(lsAddr), size) || !IsAligned(ea, size) {
			return fmt.Errorf("cellbe: DMA of %d bytes requires natural alignment (ls=%#x ea=%#x)", size, lsAddr, ea)
		}
	default:
		if size%16 != 0 {
			return fmt.Errorf("cellbe: DMA size %d must be 1,2,4,8 or a multiple of 16", size)
		}
		if !IsAligned(int64(lsAddr), 16) || !IsAligned(ea, 16) {
			return fmt.Errorf("cellbe: DMA requires 16-byte alignment (ls=%#x ea=%#x)", lsAddr, ea)
		}
	}
	return nil
}

// Put copies size bytes from local store lsAddr to effective address ea
// (mfc_put). The command is issued immediately; completion is observed via
// TagWait.
func (m *MFC) Put(p *sim.Proc, lsAddr uint32, ea int64, size int, tag int) error {
	return m.transfer(p, lsAddr, ea, size, tag, true)
}

// Get copies size bytes from effective address ea into local store lsAddr
// (mfc_get).
func (m *MFC) Get(p *sim.Proc, lsAddr uint32, ea int64, size int, tag int) error {
	return m.transfer(p, lsAddr, ea, size, tag, false)
}

func (m *MFC) transfer(p *sim.Proc, lsAddr uint32, ea int64, size, tag int, put bool) error {
	if tag < 0 || tag >= numTags {
		return fmt.Errorf("cellbe: DMA tag %d out of range", tag)
	}
	if err := checkDMA(lsAddr, ea, size); err != nil {
		return err
	}
	if err := m.copy(lsAddr, ea, size, put); err != nil {
		return err
	}
	// Issue cost on the SPU; the transfer itself proceeds asynchronously,
	// with EIB occupancy determining completion (observed by TagWait).
	p.Advance(m.spe.params().DMASetup)
	m.complete(tag, m.spe.Cell.EIB(p).Reserve(size))
	return nil
}

// dmaPages bounds the pages one DMA command touches on either side: a
// MaxDMASize transfer at any offset.
const dmaPages = MaxDMASize/PageSize + 1

// copy moves one command's bytes between local store lsAddr and effective
// address ea, page segment by page segment; put copies toward ea. The
// segment lists live on the stack, so a DMA allocates no host memory but
// the pages it touches first.
func (m *MFC) copy(lsAddr uint32, ea int64, size int, put bool) error {
	var lsBuf, eaBuf [dmaPages][]byte
	ls, err := m.spe.LS.Segments(lsAddr, size, lsBuf[:0])
	if err != nil {
		return err
	}
	mem, err := m.spe.Cell.Node.EASegments(ea, size, eaBuf[:0])
	if err != nil {
		return err
	}
	if put {
		CopySegments(mem, ls)
	} else {
		CopySegments(ls, mem)
	}
	return nil
}

// ListElement is one entry of a DMA list (mfc_list_element_t): a transfer
// between consecutive local-store addresses and a scattered effective
// address.
type ListElement struct {
	EA   int64
	Size int
}

// PutList issues a scatter DMA list (mfc_putl): elements are transferred
// from consecutive LS addresses starting at lsAddr to their individual
// effective addresses, all under one tag. Each element obeys the normal
// DMA rules; the list costs one setup plus per-element EIB occupancy,
// which is exactly why list DMA beats issuing separate commands.
func (m *MFC) PutList(p *sim.Proc, lsAddr uint32, list []ListElement, tag int) error {
	return m.transferList(p, lsAddr, list, tag, true)
}

// GetList issues a gather DMA list (mfc_getl).
func (m *MFC) GetList(p *sim.Proc, lsAddr uint32, list []ListElement, tag int) error {
	return m.transferList(p, lsAddr, list, tag, false)
}

// maxDMAListSize is the Cell's per-list element limit (2048 elements).
const maxDMAListSize = 2048

func (m *MFC) transferList(p *sim.Proc, lsAddr uint32, list []ListElement, tag int, put bool) error {
	if tag < 0 || tag >= numTags {
		return fmt.Errorf("cellbe: DMA tag %d out of range", tag)
	}
	if len(list) == 0 || len(list) > maxDMAListSize {
		return fmt.Errorf("cellbe: DMA list of %d elements out of range (1..%d)", len(list), maxDMAListSize)
	}
	// Validate everything before moving any byte: a malformed element
	// must not leave a half-applied list.
	off := lsAddr
	total := 0
	for i, el := range list {
		if err := checkDMA(off, el.EA, el.Size); err != nil {
			return fmt.Errorf("cellbe: DMA list element %d: %w", i, err)
		}
		off += uint32(el.Size)
		total += el.Size
	}
	if err := m.spe.LS.check(lsAddr, total); err != nil {
		return err
	}
	for _, el := range list {
		if _, _, err := m.spe.Cell.Node.resolveEA(el.EA, el.Size); err != nil {
			return err
		}
	}
	off = lsAddr
	for _, el := range list {
		if err := m.copy(off, el.EA, el.Size, put); err != nil {
			return err
		}
		off += uint32(el.Size)
	}
	// One command setup; the elements stream over the EIB back to back.
	p.Advance(m.spe.params().DMASetup)
	var done sim.Time
	eib := m.spe.Cell.EIB(p)
	for _, el := range list {
		done = eib.Reserve(el.Size)
	}
	m.complete(tag, done)
	return nil
}

// TagWait blocks p until all transfers whose tags are set in mask have
// completed (mfc_write_tag_mask + mfc_read_tag_status_all).
func (m *MFC) TagWait(p *sim.Proc, mask uint32) {
	if m.completion == nil {
		return
	}
	var latest sim.Time
	for tag, done := range m.completion {
		if mask&(1<<tag) != 0 && done > latest {
			latest = done
		}
	}
	p.AdvanceTo(latest)
}
