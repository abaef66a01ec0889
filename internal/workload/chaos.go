package workload

import (
	"fmt"
	"sort"
	"strings"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/fault"
	"cellpilot/internal/sim"
)

// ChaosConfig describes one seeded chaos run: concurrent pingpong traffic
// over all five Table I channel types inside ONE application, under a
// deterministic fault plan (lossy links, SPE kills, mailbox faults). The
// run uses the hardened API (Try* deadline variants), so injected faults
// degrade flows instead of hanging or crashing the run.
type ChaosConfig struct {
	// Seed feeds the injector's RNG (link loss draws, delays).
	Seed int64
	// Reps is the number of round trips per channel type (default 20).
	Reps int
	// Bytes is the payload per message (default 256; keep it under the
	// eager threshold so cross-node traffic exercises the retransmit path).
	Bytes int
	// LossProb, when > 0, applies a symmetric drop probability to the
	// node0 <-> node1 link.
	LossProb float64
	// KillSPE kills the type-4 writer SPE at KillAt; its flow faults, the
	// other four must still complete.
	KillSPE bool
	// KillAt is the kill time (default 2ms).
	KillAt sim.Time
	// MailboxDrops arms N one-shot outbound-mailbox word drops, spread
	// over the run's first milliseconds across the SPE stubs.
	MailboxDrops int
	// SoftTimeout bounds every Try* operation (default 200ms — far above
	// any retransmit backoff, so it only fires on genuine faults).
	SoftTimeout sim.Time
	// Params overrides the timing calibration (nil = defaults).
	Params *cellbe.Params
	// Transfer tunes the chunked transfer engine (zero value = disabled).
	// With chunking on and Bytes past the eager bound, the internode flows
	// (types 1, 3 and 5) exercise the chunk pipeline under injection.
	Transfer core.TransferOptions
	// Spec overrides the cluster topology (nil = the default two-Cell +
	// one-Xeon corner). The chaos traffic pins processes to nodes 0, 1 and
	// 2, so the first two nodes must be Cell blades and a third node of any
	// kind must exist; larger topologies carry the extra nodes idle.
	Spec *cluster.Spec
	// Plan overrides the config-derived fault schedule with an explicit one
	// (the scenario DSL's lowered product). Seed still names the injector
	// RNG seed; the plan's own Seed field is ignored.
	Plan *fault.Plan
	// Stats, when non-nil, receives the application's post-run report.
	// With Trace also attached it includes the critical-path blame
	// decomposition (Stats.CritPath) and contention pairs.
	Stats *core.Stats
	// Sinks are the observation sinks the run records into. They only
	// read, so an observed chaos run keeps a bit-identical fingerprint;
	// the Fingerprint holds no host-dependent data, so one with HostProf
	// attached does too. A nil Metrics gets a fresh Meter, whose fault
	// counters the result reports.
	core.Sinks
}

// ChaosSPEs lists the SPE stub process names a chaos run creates — the
// valid targets for kill-spe and mailbox fault injection. The scenario
// DSL validates fault targets against this set before lowering.
func ChaosSPEs() []string {
	return []string{"c2e#0", "c3e#1", "c4w#2", "c4r#3", "c5i#4", "c5e#0"}
}

// ChaosNodes is how many leading cluster nodes the chaos traffic pins
// processes to (nodes 0 and 1 must be Cell blades; node 2 may be either).
const ChaosNodes = 3

// ChaosResult is one chaos run's complete observable outcome. Two runs of
// the same config must produce identical Fingerprints.
type ChaosResult struct {
	Config ChaosResult_Config
	// VirtualTime is the run's final clock.
	VirtualTime sim.Time
	// Completed counts full round trips per channel type (1..5).
	Completed [6]int
	// Counts is the injector's fault/reaction counters.
	Counts fault.Counts
	// Killed lists processes removed by injection.
	Killed []string
	// FaultLog is the injector's chronological event log.
	FaultLog []string
	// RunErr is App.Run's error rendering ("" for a clean run).
	RunErr string
	// MetricsFaultLines are the fault/* counters from the metrics dump.
	MetricsFaultLines []string
}

// ChaosResult_Config is the subset of ChaosConfig echoed into the result.
type ChaosResult_Config struct {
	Seed         int64
	LossProb     float64
	KillSPE      bool
	MailboxDrops int
}

// Fingerprint renders everything observable about the run into one
// string; bit-for-bit equality across runs is the determinism contract.
func (r ChaosResult) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d loss=%g kill=%v mbox=%d\n",
		r.Config.Seed, r.Config.LossProb, r.Config.KillSPE, r.Config.MailboxDrops)
	fmt.Fprintf(&b, "vt=%d\n", int64(r.VirtualTime))
	fmt.Fprintf(&b, "completed=%v\n", r.Completed)
	fmt.Fprintf(&b, "counts=%+v\n", r.Counts)
	fmt.Fprintf(&b, "killed=%v\n", r.Killed)
	fmt.Fprintf(&b, "err=%s\n", r.RunErr)
	for _, l := range r.FaultLog {
		fmt.Fprintf(&b, "log %s\n", l)
	}
	for _, l := range r.MetricsFaultLines {
		fmt.Fprintf(&b, "metric %s\n", l)
	}
	return b.String()
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Reps == 0 {
		c.Reps = 20
	}
	if c.Bytes == 0 {
		c.Bytes = 256
	}
	if c.KillAt == 0 {
		c.KillAt = 2 * sim.Millisecond
	}
	if c.SoftTimeout == 0 {
		c.SoftTimeout = 200 * sim.Millisecond
	}
	if c.Params == nil {
		c.Params = cellbe.DefaultParams()
	}
	return c
}

// plan builds the deterministic fault schedule for this config.
func (c ChaosConfig) plan() fault.Plan {
	p := fault.Plan{Seed: c.Seed}
	if c.LossProb > 0 {
		p.Links = append(p.Links,
			fault.LinkPolicy{From: 0, To: 1, DropProb: c.LossProb},
			fault.LinkPolicy{From: 1, To: 0, DropProb: c.LossProb})
	}
	if c.KillSPE {
		p.Events = append(p.Events, fault.Event{At: c.KillAt, Kind: fault.KillSPE, Proc: "c4w#2"})
	}
	// Spread the mailbox drops across the SPE stubs early in the run.
	targets := []string{"c2e#0", "c3e#1", "c5i#4", "c5e#0"}
	for i := 0; i < c.MailboxDrops; i++ {
		p.Events = append(p.Events, fault.Event{
			At:   sim.Time(i+1) * 300 * sim.Microsecond,
			Kind: fault.MailboxDrop,
			Proc: targets[i%len(targets)],
		})
	}
	return p
}

// ChaosSweep runs the same scenario across several seeds.
func ChaosSweep(base ChaosConfig, seeds []int64) ([]ChaosResult, error) {
	out := make([]ChaosResult, 0, len(seeds))
	for _, s := range seeds {
		cfg := base
		cfg.Seed = s
		r, err := Chaos(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Chaos runs one seeded chaos experiment on a fresh cluster. A fault
// diagnostic names its Try* call site below by file and line, and the
// scenario goldens (scenarios/*.golden) pin those lines.
func Chaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	spec := cluster.Spec{CellNodes: 2, XeonNodes: 1, Params: cfg.Params, Seed: 7}
	if cfg.Spec != nil {
		spec = *cfg.Spec
		if spec.Params == nil {
			spec.Params = cfg.Params
		}
		if spec.Seed == 0 {
			spec.Seed = 7
		}
	}
	if spec.CellNodes < 2 || spec.CellNodes+spec.XeonNodes < ChaosNodes {
		return ChaosResult{}, fmt.Errorf(
			"chaos: topology needs at least 2 Cell nodes and %d nodes total, got %d Cell + %d Xeon",
			ChaosNodes, spec.CellNodes, spec.XeonNodes)
	}
	clu, err := cluster.New(spec)
	if err != nil {
		return ChaosResult{}, err
	}
	plan := cfg.plan()
	if cfg.Plan != nil {
		plan = *cfg.Plan
		plan.Seed = cfg.Seed
	}
	inj := fault.NewInjector(plan)
	a := core.NewApp(clu, core.Options{Faults: inj, Transfer: cfg.Transfer})
	a.Sinks = cfg.Sinks
	if a.Metrics == nil {
		a.Metrics = core.NewMeter()
	}

	res := ChaosResult{Config: ChaosResult_Config{
		Seed: cfg.Seed, LossProb: cfg.LossProb, KillSPE: cfg.KillSPE, MailboxDrops: cfg.MailboxDrops,
	}}
	n := cfg.Bytes / 4
	format := fmt.Sprintf("%%%dd", n)
	mk := func(round int) []int32 {
		arr := make([]int32, n)
		for i := range arr {
			arr[i] = int32(round + i)
		}
		return arr
	}
	check := func(typ, round int, arr []int32) error {
		for i := range arr {
			if arr[i] != int32(round+i) {
				return fmt.Errorf("type %d round %d corrupted at %d: %d", typ, round, i, arr[i])
			}
		}
		return nil
	}
	to := cfg.SoftTimeout

	// Soft-op adapters: a flow stops at its first fault instead of
	// unwinding its process, so one faulted flow cannot take down the
	// others that share the process (main drives types 1, 2 and 4's
	// launches concurrently with its own traffic).
	type wr func(ch *core.Channel, f string, args ...any) error
	initiate := func(typ int, write, read wr, ab, ba *core.Channel) error {
		for r := 0; r < cfg.Reps; r++ {
			if err := write(ab, format, mk(r)); err != nil {
				return err
			}
			got := make([]int32, n)
			if err := read(ba, format, got); err != nil {
				return err
			}
			if err := check(typ, r, got); err != nil {
				return err
			}
			res.Completed[typ]++
		}
		return nil
	}
	echo := func(write, read wr, ab, ba *core.Channel) {
		for r := 0; r < cfg.Reps; r++ {
			got := make([]int32, n)
			if read(ab, format, got) != nil {
				return
			}
			if write(ba, format, got) != nil {
				return
			}
		}
	}
	ctxWr := func(ctx *core.Ctx) (wr, wr) {
		return func(ch *core.Channel, f string, args ...any) error { return ctx.TryWrite(ch, to, f, args...) },
			func(ch *core.Channel, f string, args ...any) error { return ctx.TryRead(ch, to, f, args...) }
	}
	speWr := func(ctx *core.SPECtx) (wr, wr) {
		return func(ch *core.Channel, f string, args ...any) error { return ctx.TryWrite(ch, to, f, args...) },
			func(ch *core.Channel, f string, args ...any) error { return ctx.TryRead(ch, to, f, args...) }
	}

	var t1ab, t1ba, t2ab, t2ba, t3ab, t3ba, t4ab, t4ba, t5ab, t5ba *core.Channel

	// Type 1 echo: PPE on node 1 (also parent of the type-5 echo SPE).
	ppe1 := a.CreateProcessOn(1, "chaos_ppe1", func(ctx *core.Ctx, _ int, arg any) {
		ctx.RunSPE(arg.(*core.Process), 0, nil)
		w, r := ctxWr(ctx)
		echo(w, r, t1ab, t1ba)
	}, 0, nil)
	// Type 3 initiator: the Xeon node.
	xeon := a.CreateProcessOn(2, "chaos_xeon", func(ctx *core.Ctx, _ int, _ any) {
		w, r := ctxWr(ctx)
		if err := initiate(3, w, r, t3ab, t3ba); err != nil {
			return
		}
	}, 0, nil)

	c2e := &core.SPEProgram{Name: "c2e", Body: func(ctx *core.SPECtx) {
		w, r := speWr(ctx)
		echo(w, r, t2ab, t2ba)
	}}
	c3e := &core.SPEProgram{Name: "c3e", Body: func(ctx *core.SPECtx) {
		w, r := speWr(ctx)
		echo(w, r, t3ab, t3ba)
	}}
	c4w := &core.SPEProgram{Name: "c4w", Body: func(ctx *core.SPECtx) {
		w, r := speWr(ctx)
		if err := initiate(4, w, r, t4ab, t4ba); err != nil {
			return
		}
	}}
	c4r := &core.SPEProgram{Name: "c4r", Body: func(ctx *core.SPECtx) {
		w, r := speWr(ctx)
		echo(w, r, t4ab, t4ba)
	}}
	c5i := &core.SPEProgram{Name: "c5i", Body: func(ctx *core.SPECtx) {
		w, r := speWr(ctx)
		if err := initiate(5, w, r, t5ab, t5ba); err != nil {
			return
		}
	}}
	c5e := &core.SPEProgram{Name: "c5e", Body: func(ctx *core.SPECtx) {
		w, r := speWr(ctx)
		echo(w, r, t5ab, t5ba)
	}}

	s2 := a.CreateSPE(c2e, a.Main(), 0)
	s3 := a.CreateSPE(c3e, a.Main(), 1)
	s4w := a.CreateSPE(c4w, a.Main(), 2)
	s4r := a.CreateSPE(c4r, a.Main(), 3)
	s5i := a.CreateSPE(c5i, a.Main(), 4)
	s5e := a.CreateSPE(c5e, ppe1, 0)
	ppe1.SetArg(s5e)

	t1ab = a.CreateChannel(a.Main(), ppe1)
	t1ba = a.CreateChannel(ppe1, a.Main())
	t2ab = a.CreateChannel(a.Main(), s2)
	t2ba = a.CreateChannel(s2, a.Main())
	t3ab = a.CreateChannel(xeon, s3)
	t3ba = a.CreateChannel(s3, xeon)
	t4ab = a.CreateChannel(s4w, s4r)
	t4ba = a.CreateChannel(s4r, s4w)
	t5ab = a.CreateChannel(s5i, s5e)
	t5ba = a.CreateChannel(s5e, s5i)

	runErr := a.Run(func(ctx *core.Ctx) {
		for _, sp := range []*core.Process{s2, s3, s4w, s4r, s5i} {
			ctx.RunSPE(sp, 0, nil)
		}
		w, r := ctxWr(ctx)
		if err := initiate(1, w, r, t1ab, t1ba); err != nil {
			return
		}
		if err := initiate(2, w, r, t2ab, t2ba); err != nil {
			return
		}
	})
	res.VirtualTime = a.K.Now()
	res.Counts = inj.Counts
	res.Killed = append(res.Killed, a.KilledProcs()...)
	res.FaultLog = inj.Log()
	if runErr != nil {
		res.RunErr = runErr.Error()
	}
	for _, line := range strings.Split(a.Stats().Registry.Dump(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "fault/") {
			res.MetricsFaultLines = append(res.MetricsFaultLines, strings.TrimSpace(line))
		}
	}
	sort.Strings(res.MetricsFaultLines)
	if cfg.Stats != nil {
		*cfg.Stats = a.Stats()
	}
	return res, nil
}
