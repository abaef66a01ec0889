// Package sdk is the simulated counterpart of IBM's SPE Runtime Management
// Library (libspe2): SPE program handles, contexts, program load and run,
// mailbox access from both sides, and MFC DMA entry points. CellPilot's
// implementation sits on exactly these functions (the paper uses "only the
// basic functions in libspe2"), and the hand-coded benchmark baselines are
// written directly against this API.
//
// Mapping to libspe2: Program ≈ spe_program_handle_t, Context ≈
// spe_context_t, Context.Run ≈ spe_context_run (spawned on a thread by the
// caller, as PPE code does), WriteInMbox ≈ spe_in_mbox_write, ReadOutMbox ≈
// spe_out_mbox_read, and the MFC methods ≈ mfc_put/mfc_get plus
// mfc_write_tag_mask/mfc_read_tag_status_all on the SPU side.
package sdk

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

// Program is an SPE executable: a Go function standing in for the SPU
// object code that the Cell toolchain would embed into the PPE binary.
type Program struct {
	// Name identifies the program in traces and errors.
	Name string
	// CodeSize is the local-store bytes its text+data segments occupy
	// (0 = the model's default). It participates in the 256 KB budget.
	CodeSize int
	// OverlaySize reserves a code-overlay region in the local store. The
	// paper notes programmers "may need to divide up their application
	// code accordingly, for which an overlay capability is available";
	// segments are swapped in at run time with LoadOverlay.
	OverlaySize int
	// Main is the program entry point, running in SPE context.
	Main func(ctx *Context, arg int, env any)
}

// Context is a loaded SPE context: one program occupying one SPE.
type Context struct {
	SPE  *cellbe.SPE
	Prog *Program
	// Done fires when the program returns; PPE code waits on it like the
	// pthread join around spe_context_run.
	Done *sim.Event
	// Proc is the sim proc running the program (nil until Run).
	Proc *sim.Proc

	k        *sim.Kernel
	runtime  int // library footprint loaded with the program
	loaded   bool
	running  bool
	finished bool
}

// ContextCreate claims an idle SPE (spe_context_create).
func ContextCreate(k *sim.Kernel, spe *cellbe.SPE) (*Context, error) {
	if spe.Busy {
		return nil, fmt.Errorf("sdk: %s is already running a context", spe.Name())
	}
	spe.Busy = true
	return &Context{SPE: spe, k: k, Done: sim.NewEvent(k, spe.Name()+"/done")}, nil
}

// Load places a program image in the SPE local store
// (spe_program_load). runtimeFootprint is the resident library size —
// cellpilot.o or libdacs.a in the paper's measurements — and is charged
// against the 256 KB alongside the program's code and stack reserve.
func (c *Context) Load(prog *Program, runtimeFootprint int) error {
	par := c.SPE.Cell.Node.Params
	code := prog.CodeSize
	if code == 0 {
		code = par.DefaultCodeSize
	}
	image := runtimeFootprint + code + prog.OverlaySize + par.StackReserve
	if err := c.SPE.LS.LoadImage(prog.Name, image); err != nil {
		return fmt.Errorf("sdk: loading %s onto %s: %w", prog.Name, c.SPE.Name(), err)
	}
	c.Prog = prog
	c.runtime = runtimeFootprint
	c.loaded = true
	return nil
}

// Run starts the loaded program with the given argument and environment
// pointer (spe_context_run, on its own thread as PPE code always arranges).
// It returns immediately; wait on Done for completion.
func (c *Context) Run(arg int, env any) error {
	if !c.loaded {
		return fmt.Errorf("sdk: Run on %s before Load", c.SPE.Name())
	}
	if c.running {
		return fmt.Errorf("sdk: %s context already running", c.SPE.Name())
	}
	c.running = true
	name := fmt.Sprintf("%s:%s", c.SPE.Name(), c.Prog.Name)
	c.Proc = c.k.Spawn(name, func(p *sim.Proc) {
		c.Prog.Main(c, arg, env)
		c.finished = true
		c.running = false
		c.Done.Fire()
	})
	return nil
}

// Destroy releases the SPE (spe_context_destroy).
func (c *Context) Destroy() {
	c.SPE.Busy = false
	c.loaded = false
}

// Finished reports whether the program has returned.
func (c *Context) Finished() bool { return c.finished }

// --- SPU-side operations (called from within Prog.Main) ---

// WriteOutMbox writes to the SPE→PPE mailbox (spu_write_out_mbox); it
// stalls while the single-entry mailbox is full.
func (c *Context) WriteOutMbox(p *sim.Proc, v uint32) { c.SPE.OutMbox.Write(p, v) }

// WriteOutMboxCtl is WriteOutMbox bounded by an absolute deadline (0 =
// none) and an optional stop predicate, so a stub whose Co-Pilot died is
// not parked forever against a full mailbox.
func (c *Context) WriteOutMboxCtl(p *sim.Proc, v uint32, deadline sim.Time, stop func() error) error {
	return c.SPE.OutMbox.WriteCtl(p, v, deadline, stop)
}

// ReadInMbox reads the PPE→SPE mailbox (spu_read_in_mbox), stalling while
// empty.
func (c *Context) ReadInMbox(p *sim.Proc) uint32 { return c.SPE.InMbox.Read(p) }

// ReadInMboxCtl is ReadInMbox bounded by an absolute deadline (0 = none)
// and an optional stop predicate; the hardened SPE stub uses it to bound
// its wait for the Co-Pilot's acknowledgement.
func (c *Context) ReadInMboxCtl(p *sim.Proc, deadline sim.Time, stop func() error) (uint32, error) {
	return c.SPE.InMbox.ReadCtl(p, deadline, stop)
}

// MFCPut issues a DMA from local store to an effective address (mfc_put
// followed by tag bookkeeping).
func (c *Context) MFCPut(p *sim.Proc, lsAddr uint32, ea int64, size, tag int) error {
	return c.SPE.MFC.Put(p, lsAddr, ea, size, tag)
}

// MFCGet issues a DMA from an effective address into local store (mfc_get).
func (c *Context) MFCGet(p *sim.Proc, lsAddr uint32, ea int64, size, tag int) error {
	return c.SPE.MFC.Get(p, lsAddr, ea, size, tag)
}

// MFCPutList issues a scatter DMA list (mfc_putl): consecutive LS data to
// scattered effective addresses under one tag.
func (c *Context) MFCPutList(p *sim.Proc, lsAddr uint32, list []cellbe.ListElement, tag int) error {
	return c.SPE.MFC.PutList(p, lsAddr, list, tag)
}

// MFCGetList issues a gather DMA list (mfc_getl).
func (c *Context) MFCGetList(p *sim.Proc, lsAddr uint32, list []cellbe.ListElement, tag int) error {
	return c.SPE.MFC.GetList(p, lsAddr, list, tag)
}

// TagWait blocks until DMAs on the masked tags complete
// (mfc_write_tag_mask + mfc_read_tag_status_all).
func (c *Context) TagWait(p *sim.Proc, mask uint32) { c.SPE.MFC.TagWait(p, mask) }

// --- PPE-side operations (called by the process managing the SPE) ---

// WriteInMbox writes the PPE→SPE mailbox (spe_in_mbox_write).
func (c *Context) WriteInMbox(p *sim.Proc, v uint32) { c.SPE.InMbox.Write(p, v) }

// ReadOutMbox reads the SPE→PPE mailbox (spe_out_mbox_read), stalling
// while empty.
func (c *Context) ReadOutMbox(p *sim.Proc) uint32 { return c.SPE.OutMbox.Read(p) }

// TryReadOutMbox polls the SPE→PPE mailbox (spe_out_mbox_status +
// conditional read) without stalling.
func (c *Context) TryReadOutMbox(p *sim.Proc) (uint32, bool) { return c.SPE.OutMbox.TryRead(p) }

// ReadOutMboxCtl is ReadOutMbox bounded by an absolute deadline (0 =
// none) and an optional stop predicate. The hardened Co-Pilot bounds its
// descriptor reads with it, so a dropped mailbox word cannot wedge the
// service loop.
func (c *Context) ReadOutMboxCtl(p *sim.Proc, deadline sim.Time, stop func() error) (uint32, error) {
	return c.SPE.OutMbox.ReadCtl(p, deadline, stop)
}

// LSBase reports the effective address of the SPE's memory-mapped local
// store (spe_ls_area_get) — the mechanism Co-Pilot uses to address SPE
// buffers directly.
func (c *Context) LSBase() int64 { return c.SPE.LSBase() }

// ReadSignal1 blocks until SNR1 (OR mode) is non-zero, returning and
// clearing it (spu_read_signal1). SPU side.
func (c *Context) ReadSignal1(p *sim.Proc) uint32 { return c.SPE.SNR1.Read(p) }

// ReadSignal2 blocks until SNR2 (overwrite mode) is non-zero
// (spu_read_signal2). SPU side.
func (c *Context) ReadSignal2(p *sim.Proc) uint32 { return c.SPE.SNR2.Read(p) }

// SignalWrite delivers a value to one of the context's signal registers
// (spe_signal_write; reg is 1 or 2). Callable from the PPE or, through
// the problem-state mapping, from another SPE's program.
func (c *Context) SignalWrite(p *sim.Proc, reg int, v uint32) error {
	switch reg {
	case 1:
		c.SPE.SNR1.Write(p, v)
	case 2:
		c.SPE.SNR2.Write(p, v)
	default:
		return fmt.Errorf("sdk: no signal register %d", reg)
	}
	return nil
}

// LoadOverlay swaps a code segment of size bytes into the program's
// overlay region (the toolchain's overlay manager). It charges the DMA
// time to pull the segment from main storage and fails if the program
// reserved no large-enough region.
func (c *Context) LoadOverlay(p *sim.Proc, name string, size int) error {
	if !c.loaded || c.Prog == nil {
		return fmt.Errorf("sdk: LoadOverlay before Load")
	}
	if size <= 0 || size > c.Prog.OverlaySize {
		return fmt.Errorf("sdk: overlay %q needs %d bytes but %s reserved %d",
			name, size, c.Prog.Name, c.Prog.OverlaySize)
	}
	par := c.SPE.Cell.Node.Params
	p.Advance(par.DMASetup)
	done := c.SPE.Cell.EIB(p).Reserve(size)
	p.AdvanceTo(done)
	return nil
}
