// Package dacs is a working model of IBM's Data Communication and
// Synchronization library (DaCS) and its hybrid extension (DaCSH), built
// as the paper's baseline: a strictly hierarchical topology of host
// elements (HE) and accelerator elements (AE) — Figure 1 — with remote
// memory regions, put/get data movement, mailboxes, and parent↔child
// messaging only.
//
// The limitations the paper holds against DaCS are reproduced
// deliberately: no direct SPE↔SPE communication (ErrNotSupported), no
// flexibility beyond the fixed hierarchy, and an SPE library footprint of
// 36600 bytes (libdacs.a) charged against every loaded SPE program.
package dacs

import (
	"errors"
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
)

// ErrNotSupported marks operations outside DaCS's hierarchical model,
// such as SPE-to-SPE communication.
var ErrNotSupported = errors.New("dacs: operation not supported by the hierarchical model")

// Kind classifies a DaCS element.
type Kind int

// Element kinds in the DaCSH hierarchy.
const (
	// KindClusterHE is the one non-Cell node acting as HE for the cluster.
	KindClusterHE Kind = iota
	// KindCellHE is a Cell node's PPE: an AE of the cluster HE and the HE
	// of its own SPEs.
	KindCellHE
	// KindSPEAE is a leaf SPE accelerator element.
	KindSPEAE
)

// Element is one node of the DaCSH process hierarchy.
type Element struct {
	rt       *Runtime
	ID       int
	Kind     Kind
	Parent   *Element
	Children []*Element
	Node     *cellbe.Node
	SPE      *cellbe.SPE  // leaves only
	Ctx      *sdk.Context // leaves only, after StartProgram

	inbox *sim.Queue[[]byte]
}

// Name identifies the element.
func (e *Element) Name() string {
	switch e.Kind {
	case KindClusterHE:
		return fmt.Sprintf("HE(%s)", e.Node.Name)
	case KindCellHE:
		return fmt.Sprintf("AE/HE(%s)", e.Node.Name)
	default:
		return fmt.Sprintf("AE(%s)", e.SPE.Name())
	}
}

// Runtime is a DaCSH instance over a cluster.
type Runtime struct {
	K    *sim.Kernel
	Clu  *cluster.Cluster
	Par  *cellbe.Params
	Root *Element
	all  []*Element
}

// NewTopology builds the Figure 1 hierarchy: the first non-Cell node is
// the cluster HE; every Cell node's PPE is one of its AEs and the HE of
// its own SPE AEs. A cluster without a non-Cell node gets a single-level
// hierarchy rooted at the first Cell node (plain DaCS, no DaCSH).
func NewTopology(c *cluster.Cluster) (*Runtime, error) {
	rt := &Runtime{K: c.K, Clu: c, Par: c.Params}
	xeons := c.XeonNodesList()
	cells := c.CellNodesList()
	if len(cells) == 0 {
		return nil, fmt.Errorf("dacs: no Cell nodes in the cluster")
	}
	mk := func(kind Kind, node *cellbe.Node, spe *cellbe.SPE, parent *Element) *Element {
		e := &Element{rt: rt, ID: len(rt.all), Kind: kind, Node: node, SPE: spe, Parent: parent}
		e.inbox = sim.NewQueue[[]byte](c.K, fmt.Sprintf("dacs/inbox/%d", e.ID), 16)
		rt.all = append(rt.all, e)
		if parent != nil {
			parent.Children = append(parent.Children, e)
		}
		return e
	}
	if len(xeons) > 0 {
		rt.Root = mk(KindClusterHE, xeons[0], nil, nil)
	}
	for _, cn := range cells {
		he := mk(KindCellHE, cn, nil, rt.Root)
		if rt.Root == nil {
			rt.Root = he
		}
		for _, spe := range cn.SPEs() {
			mk(KindSPEAE, cn, spe, he)
		}
	}
	return rt, nil
}

// Elements returns every element in creation order.
func (rt *Runtime) Elements() []*Element { return rt.all }

// related reports whether a and b are parent and child (the only pairs
// DaCS lets communicate).
func related(a, b *Element) bool {
	return a.Parent == b || b.Parent == a
}

// StartProgram loads prog onto a leaf SPE AE with the DaCS library
// resident (36600 bytes of local store) and runs it (dacs_de_start).
func (rt *Runtime) StartProgram(e *Element, prog *sdk.Program, arg int, env any) error {
	if e.Kind != KindSPEAE {
		return fmt.Errorf("dacs: StartProgram on non-SPE element %s", e.Name())
	}
	ctx, err := sdk.ContextCreate(rt.K, e.SPE)
	if err != nil {
		return err
	}
	if err := ctx.Load(prog, rt.Par.DaCSFootprint); err != nil {
		ctx.Destroy()
		return err
	}
	e.Ctx = ctx
	return ctx.Run(arg, env)
}

// SendTo sends a data message from e to dst (dacs_send_to). Only
// parent↔child pairs may communicate; anything else — in particular
// SPE↔SPE — returns ErrNotSupported.
func (e *Element) SendTo(p *sim.Proc, dst *Element, data []byte) error {
	if !related(e, dst) {
		return fmt.Errorf("%w: %s -> %s", ErrNotSupported, e.Name(), dst.Name())
	}
	par := e.rt.Par
	switch {
	case e.Kind == KindSPEAE || dst.Kind == KindSPEAE:
		// SPE leg: staged through the MFC (DMA) plus a mailbox handshake.
		p.Advance(par.DMASetup + par.MailboxWrite)
	case e.Node.ID != dst.Node.ID:
		// Cluster leg (DaCSH): across the interconnect.
		arr, err := e.rt.Clu.Net.Send(p, e.Node.ID, dst.Node.ID, len(data))
		if err != nil {
			return err
		}
		p.AdvanceTo(arr)
	default:
		p.Advance(par.MemcpyTime(len(data)))
	}
	dst.inbox.Put(p, append([]byte(nil), data...))
	return nil
}

// RecvFrom receives the next message from src (dacs_recv_from), blocking
// until one arrives.
func (e *Element) RecvFrom(p *sim.Proc, src *Element) ([]byte, error) {
	if !related(e, src) {
		return nil, fmt.Errorf("%w: %s <- %s", ErrNotSupported, e.Name(), src.Name())
	}
	return e.inbox.Get(p), nil
}

// RemoteMem is a shareable handle to a memory region
// (dacs_remote_mem_create/query). Only main-memory regions can be shared;
// that is exactly why DaCS cannot do SPE↔SPE.
type RemoteMem struct {
	Node     *cellbe.Node
	EA       int64
	Size     int
	released bool
}

// RemoteMemCreate publishes a main-memory region for remote access.
func (rt *Runtime) RemoteMemCreate(node *cellbe.Node, ea int64, size int) (*RemoteMem, error) {
	if cellbe.IsLSMapped(ea) {
		return nil, fmt.Errorf("%w: remote memory must be in main storage", ErrNotSupported)
	}
	if err := node.Mem.Check(ea, size); err != nil {
		return nil, err
	}
	return &RemoteMem{Node: node, EA: ea, Size: size}, nil
}

// Release invalidates the handle (dacs_remote_mem_release).
func (rm *RemoteMem) Release() { rm.released = true }

// Put copies size bytes from the element's local store into the remote
// region (dacs_put): leaf AEs only, DMA under the hood, completion via
// Wait.
func (e *Element) Put(p *sim.Proc, rm *RemoteMem, off int64, lsAddr uint32, size, tag int) error {
	return e.rma(p, rm, off, lsAddr, size, tag, true)
}

// Get copies size bytes from the remote region into local store
// (dacs_get).
func (e *Element) Get(p *sim.Proc, rm *RemoteMem, off int64, lsAddr uint32, size, tag int) error {
	return e.rma(p, rm, off, lsAddr, size, tag, false)
}

func (e *Element) rma(p *sim.Proc, rm *RemoteMem, off int64, lsAddr uint32, size, tag int, put bool) error {
	if e.Kind != KindSPEAE || e.Ctx == nil {
		return fmt.Errorf("dacs: put/get requires a started SPE AE")
	}
	if rm.released {
		return fmt.Errorf("dacs: remote memory handle released")
	}
	if rm.Node.ID != e.Node.ID {
		return fmt.Errorf("%w: remote memory on another node requires the hybrid message path", ErrNotSupported)
	}
	if off < 0 || int(off)+size > rm.Size {
		return fmt.Errorf("dacs: put/get [%d,+%d) outside remote region of %d bytes", off, size, rm.Size)
	}
	if put {
		return e.Ctx.MFCPut(p, lsAddr, rm.EA+off, size, tag)
	}
	return e.Ctx.MFCGet(p, lsAddr, rm.EA+off, size, tag)
}

// Wait blocks until DMAs issued under tag complete (dacs_wait).
func (e *Element) Wait(p *sim.Proc, tag int) error {
	if e.Kind != KindSPEAE || e.Ctx == nil {
		return fmt.Errorf("dacs: wait requires a started SPE AE")
	}
	e.Ctx.TagWait(p, 1<<uint(tag))
	return nil
}

// MailboxWrite posts one 32-bit value toward a child or parent
// (dacs_mailbox_write); SPE legs use the hardware mailboxes.
func (e *Element) MailboxWrite(p *sim.Proc, dst *Element, v uint32) error {
	if !related(e, dst) {
		return fmt.Errorf("%w: mailbox %s -> %s", ErrNotSupported, e.Name(), dst.Name())
	}
	switch {
	case dst.Kind == KindSPEAE:
		dst.SPE.InMbox.Write(p, v)
	case e.Kind == KindSPEAE:
		e.SPE.OutMbox.Write(p, v)
	default:
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		return e.SendTo(p, dst, b[:])
	}
	return nil
}

// MailboxRead reads one 32-bit value sent by src (dacs_mailbox_read).
func (e *Element) MailboxRead(p *sim.Proc, src *Element) (uint32, error) {
	if !related(e, src) {
		return 0, fmt.Errorf("%w: mailbox %s <- %s", ErrNotSupported, e.Name(), src.Name())
	}
	switch {
	case src.Kind == KindSPEAE:
		return src.SPE.OutMbox.Read(p), nil
	case e.Kind == KindSPEAE:
		return e.SPE.InMbox.Read(p), nil
	default:
		b, err := e.RecvFrom(p, src)
		if err != nil || len(b) != 4 {
			return 0, fmt.Errorf("dacs: malformed mailbox message")
		}
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
	}
}
