package core

import (
	"fmt"

	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
	"cellpilot/internal/trace"
)

// Kind distinguishes regular Pilot processes (MPI ranks on PPEs or
// conventional cores) from SPE processes (served by a Co-Pilot).
type Kind int

// Process kinds.
const (
	KindRegular Kind = iota
	KindSPE
)

// ProcessFunc is a regular Pilot process body (the function passed to
// PI_CreateProcess). index and arg are the values given at creation, in
// the pthread_create style the paper describes.
type ProcessFunc func(ctx *Ctx, index int, arg any)

// SPEFunc is an SPE process body — the code between the paper's
// PI_SPE_PROCESS and PI_SPE_END macros.
type SPEFunc func(ctx *SPECtx)

// SPEProgram is the simulated counterpart of an spe_program_handle_t: an
// SPE executable embedded in the application (referred to through the
// PI_SPE_FUNC macro in the paper so configuration code also compiles on
// non-Cell nodes).
type SPEProgram struct {
	// Name identifies the program.
	Name string
	// CodeSize is the local-store footprint of its text+data (0 = model
	// default). The CellPilot runtime footprint is added on load.
	CodeSize int
	// Body is the program.
	Body SPEFunc
}

// Process is one Pilot process: a site for channel endpoints. Regular
// processes start automatically in the execution phase; SPE processes
// stay dormant until their parent calls RunSPE (PI_StartSPE/PI_RunSPE).
type Process struct {
	app  *App
	id   int
	name string
	kind Kind

	// Regular processes.
	fn     ProcessFunc
	index  int
	arg    any
	rank   int // MPI rank (PI_MAIN = 0)
	nodeID int

	// SPE processes.
	prog    *SPEProgram
	parent  *Process
	speIdx  int // reserved SPE (node-global index) on the parent's node
	sctx    *sdk.Context
	started bool

	// dead is set when fault injection kills the process, and simProc is
	// the sim proc backing it once running (so injection can kill it).
	dead bool
	// cut lists an SPE stub's descriptors that it gave up on part-way,
	// as the number of words it wrote of each, two bits apiece and the
	// oldest lowest (see SPECtx.cutDesc); its Co-Pilot takes each off
	// when it has read that many words.
	cut     uint8
	simProc *sim.Proc
	// posts counts an SPE stub's request descriptors (the sequenced
	// mailbox protocol numbers them by its low bits); awaiting is the
	// count of the request whose completion the stub waits for, 0 once
	// it gave up, so the Co-Pilot never hands it a stale status word.
	posts, awaiting uint32
	// backoff is an SPE stub's fault-protocol repost time not yet split
	// off a mailbox-request phase (see spanPhase).
	backoff sim.Time

	// str is String's text, fixed when Run leaves the configuration phase
	// (placement can change until then: CreateProcessOn sets nodeID after
	// CreateProcess), and lbl is its label in the App's tracks.
	str string
	lbl trace.Label

	// The process's lifetime and its blocked virtual time by kind, kept
	// by core whatever sinks are attached; Stats().ProcTimes and the
	// profiler read them.
	life    lifetime
	blocked [3]sim.Time
}

// blockKind classifies where a process's non-compute virtual time went.
type blockKind int

const (
	blockRead    blockKind = iota // blocked in a channel read (MPI recv or handoff)
	blockWrite                    // inside a channel write (send overhead + rendezvous wait)
	blockMailbox                  // SPE stub posting a request or awaiting completion
)

// lifetime is a process's or Co-Pilot's span on the virtual clock.
type lifetime struct {
	start, end sim.Time
	ran, ended bool
}

func (l *lifetime) begin(at sim.Time)  { l.start, l.ran = at, true }
func (l *lifetime) finish(at sim.Time) { l.end, l.ended = at, true }

// span reports the lifetime as [start, end], closing one that has not
// ended (a killed process, a service loop) at now.
func (l *lifetime) span(now sim.Time) (start, end sim.Time) {
	if !l.ended {
		return l.start, now
	}
	return l.start, l.end
}

// ID reports the process id (creation order; PI_MAIN is 0).
func (p *Process) ID() int { return p.id }

// Name reports the process name.
func (p *Process) Name() string { return p.name }

// Kind reports whether this is a regular or SPE process.
func (p *Process) Kind() Kind { return p.kind }

// IsSPE reports whether the process runs on an SPE.
func (p *Process) IsSPE() bool { return p.kind == KindSPE }

// NodeID reports the cluster node hosting the process.
func (p *Process) NodeID() int { return p.nodeID }

// Rank reports the MPI rank of a regular process; SPE processes have no
// rank (their Co-Pilot speaks MPI for them).
func (p *Process) Rank() (int, bool) {
	if p.kind != KindRegular {
		return 0, false
	}
	return p.rank, true
}

// Parent reports the controlling PPE process of an SPE process.
func (p *Process) Parent() *Process { return p.parent }

// SetArg replaces the argument a regular process will receive — useful
// when the argument (e.g. a channel) can only be created after the
// process. Configuration phase only.
func (p *Process) SetArg(arg any) {
	p.app.configOnly("PI_CreateProcess")
	p.arg = arg
}

// String implements fmt.Stringer.
func (p *Process) String() string {
	if p.str != "" {
		return p.str
	}
	return p.format()
}

func (p *Process) format() string {
	if p.kind == KindSPE {
		return fmt.Sprintf("%s(spe@node%d)", p.name, p.nodeID)
	}
	return fmt.Sprintf("%s(rank%d@node%d)", p.name, p.rank, p.nodeID)
}
