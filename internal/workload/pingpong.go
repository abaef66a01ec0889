// Package workload implements the paper's experiment drivers: the IMB-style
// PingPong benchmark over every channel type and method (Table II,
// Figures 5 and 6), and the scatter-search case study of Section VI.
package workload

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
)

// Method selects the transfer implementation, matching the paper's three
// test kinds.
type Method int

// Methods of paper Section V.
const (
	// MethodCellPilot routes through the full library (Co-Pilot included).
	MethodCellPilot Method = iota
	// MethodDMA is the hand-coded SPE/PPE baseline using explicit DMA.
	MethodDMA
	// MethodCopy is the hand-coded baseline using memory-mapped copying
	// (CellPilot's mechanism without the Co-Pilot's generality).
	MethodCopy
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodCellPilot:
		return "CellPilot"
	case MethodDMA:
		return "DMA"
	case MethodCopy:
		return "Copy"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// PingPongConfig describes one Table II cell.
type PingPongConfig struct {
	// Type is the channel type 1..5 (paper Table I).
	Type int
	// Bytes is the payload size; the paper uses 1 (single "%b") and 1600
	// (100 long doubles, "%100Lf").
	Bytes int
	// Method selects CellPilot or a hand-coded baseline.
	Method Method
	// Reps is the number of round trips (paper: 1000).
	Reps int
	// Params overrides the timing calibration (nil = defaults).
	Params *cellbe.Params
	// DirectLocal enables the A1 ablation (type 2 fast path).
	DirectLocal bool
	// Transfer tunes the chunked transfer engine (zero value = disabled,
	// the paper-faithful protocol). MethodCellPilot only.
	Transfer core.TransferOptions
	// RoundTrips, when non-nil, receives every timed round's round-trip
	// time in order (MethodCellPilot only) — the raw samples behind the
	// size-sweep's latency quantiles.
	RoundTrips *[]sim.Time
	// Sinks are the observation sinks the CellPilot run records into
	// (MethodCellPilot only; observation is free in virtual time).
	core.Sinks
	// Stats, when non-nil, receives the application's post-run report
	// (MethodCellPilot only). With Trace also attached it includes the
	// critical-path blame decomposition (Stats.CritPath).
	Stats *core.Stats
	// Spec overrides the simulated cluster (nil = the paper's two-Cell +
	// one-Xeon corner). The five-type grid pins its endpoints to nodes 0
	// and 1, so at least two Cell nodes are required; extra nodes idle.
	Spec *cluster.Spec
}

// Result is a measured Table II cell.
type Result struct {
	Config PingPongConfig
	// OneWay is the average one-way latency (paper reports microseconds).
	OneWay sim.Time
	// ThroughputMBps is Bytes / OneWay, the Figure 6 series.
	ThroughputMBps float64
}

func (c PingPongConfig) withDefaults() PingPongConfig {
	if c.Reps == 0 {
		c.Reps = 1000
	}
	if c.Params == nil {
		c.Params = cellbe.DefaultParams()
	}
	return c
}

// payloadFormat reproduces the paper's payload encodings: "%b" for the
// single byte, "%100Lf" for the 1600-byte long-double array, and a byte
// array for any other size.
func payloadFormat(bytes int) (format string, mk func(round int) []any, rd func() ([]any, func(round int) error)) {
	switch {
	case bytes == 1:
		format = "%b"
		mk = func(round int) []any { return []any{[]byte{byte(round)}} }
		rd = func() ([]any, func(int) error) {
			v := make([]byte, 1)
			return []any{v}, func(round int) error {
				if v[0] != byte(round) {
					return fmt.Errorf("payload corrupted: got %d want %d", v[0], byte(round))
				}
				return nil
			}
		}
	case bytes%16 == 0:
		n := bytes / 16
		format = fmt.Sprintf("%%%dLf", n)
		mk = func(round int) []any {
			arr := make([]fmtmsg.LongDoubleVal, n)
			for i := range arr {
				arr[i] = fmtmsg.LongDoubleVal{Hi: float64(round), Lo: float64(i)}
			}
			return []any{arr}
		}
		rd = func() ([]any, func(int) error) {
			arr := make([]fmtmsg.LongDoubleVal, n)
			return []any{arr}, func(round int) error {
				for i := range arr {
					if arr[i].Hi != float64(round) || arr[i].Lo != float64(i) {
						return fmt.Errorf("payload corrupted at %d", i)
					}
				}
				return nil
			}
		}
	default:
		format = fmt.Sprintf("%%%db", bytes)
		mk = func(round int) []any {
			arr := make([]byte, bytes)
			for i := range arr {
				arr[i] = byte(round + i)
			}
			return []any{arr}
		}
		rd = func() ([]any, func(int) error) {
			arr := make([]byte, bytes)
			return []any{arr}, func(round int) error {
				for i := range arr {
					if arr[i] != byte(round+i) {
						return fmt.Errorf("payload corrupted at %d", i)
					}
				}
				return nil
			}
		}
	}
	return format, mk, rd
}

// PingPong measures one Table II cell on a fresh simulated cluster.
func PingPong(cfg PingPongConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Type < 1 || cfg.Type > 5 {
		return Result{}, fmt.Errorf("workload: channel type %d out of range", cfg.Type)
	}
	var (
		total sim.Time
		err   error
	)
	if cfg.Method == MethodCellPilot {
		total, err = pingPongCellPilot(cfg)
	} else {
		total, err = pingPongHandCoded(cfg)
	}
	if err != nil {
		return Result{}, err
	}
	oneWay := total / sim.Time(2*cfg.Reps)
	res := Result{Config: cfg, OneWay: oneWay}
	if oneWay > 0 {
		res.ThroughputMBps = float64(cfg.Bytes) / (float64(oneWay) / float64(sim.Second)) / 1e6
	}
	return res, nil
}

// newPingPongCluster builds the two-Cell + one-Xeon corner of the paper's
// testbed that the five channel types need, or the caller's topology.
func newPingPongCluster(cfg PingPongConfig) (*cluster.Cluster, error) {
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
	if spec.CellNodes < 2 {
		return nil, fmt.Errorf("workload: pingpong needs at least 2 Cell nodes, got %d", spec.CellNodes)
	}
	return cluster.New(spec)
}

// pingPongCellPilot runs the full-library benchmark. Endpoint A initiates;
// B echoes. Per the paper, regular endpoints are PPEs (slower than Xeons).
func pingPongCellPilot(cfg PingPongConfig) (sim.Time, error) {
	c, err := newPingPongCluster(cfg)
	if err != nil {
		return 0, err
	}
	a := core.NewApp(c, core.Options{CoPilotDirectLocal: cfg.DirectLocal, Transfer: cfg.Transfer})
	a.Sinks = cfg.Sinks
	format, mk, rd := payloadFormat(cfg.Bytes)

	var ab, ba *core.Channel
	var total sim.Time
	rounds := cfg.Reps + 1 // one warmup round before the timed window

	initiator := func(write func(string, ...any), read func(string, ...any), now func() sim.Time) error {
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = now()
			}
			rstart := now()
			write(format, mk(r)...)
			args, verify := rd()
			read(format, args...)
			if err := verify(r); err != nil {
				return err
			}
			if cfg.RoundTrips != nil && r >= 1 {
				*cfg.RoundTrips = append(*cfg.RoundTrips, now()-rstart)
			}
		}
		total = now() - start
		return nil
	}
	echo := func(write func(string, ...any), read func(string, ...any)) {
		for r := 0; r < rounds; r++ {
			args, _ := rd()
			read(format, args...)
			write(format, args...)
		}
	}

	speEcho := &core.SPEProgram{Name: "pp_echo", Body: func(ctx *core.SPECtx) {
		echo(func(f string, as ...any) { ctx.Write(ba, f, as...) },
			func(f string, as ...any) { ctx.Read(ab, f, as...) })
	}}
	speInit := &core.SPEProgram{Name: "pp_init", Body: func(ctx *core.SPECtx) {
		if err := initiator(
			func(f string, as ...any) { ctx.Write(ab, f, as...) },
			func(f string, as ...any) { ctx.Read(ba, f, as...) },
			ctx.P.Now); err != nil {
			ctx.P.Fatalf("%v", err)
		}
	}}

	var runErr error
	switch cfg.Type {
	case 1: // PPE (cell0) <-> PPE (cell1)
		b := a.CreateProcessOn(1, "pp_b", func(ctx *core.Ctx, _ int, _ any) {
			echo(func(f string, as ...any) { ctx.Write(ba, f, as...) },
				func(f string, as ...any) { ctx.Read(ab, f, as...) })
		}, 0, nil)
		ab = a.CreateChannel(a.Main(), b)
		ba = a.CreateChannel(b, a.Main())
		runErr = a.Run(func(ctx *core.Ctx) {
			_ = initiator(
				func(f string, as ...any) { ctx.Write(ab, f, as...) },
				func(f string, as ...any) { ctx.Read(ba, f, as...) },
				ctx.P.Now)
		})
	case 2: // PPE (cell0) <-> local SPE
		spe := a.CreateSPE(speEcho, a.Main(), 0)
		ab = a.CreateChannel(a.Main(), spe)
		ba = a.CreateChannel(spe, a.Main())
		runErr = a.Run(func(ctx *core.Ctx) {
			ctx.RunSPE(spe, 0, nil)
			_ = initiator(
				func(f string, as ...any) { ctx.Write(ab, f, as...) },
				func(f string, as ...any) { ctx.Read(ba, f, as...) },
				ctx.P.Now)
		})
	case 3: // PPE (cell1) <-> remote SPE (cell0)
		spe := a.CreateSPE(speEcho, a.Main(), 0)
		b := a.CreateProcessOn(1, "pp_a", func(ctx *core.Ctx, _ int, _ any) {
			_ = initiator(
				func(f string, as ...any) { ctx.Write(ab, f, as...) },
				func(f string, as ...any) { ctx.Read(ba, f, as...) },
				ctx.P.Now)
		}, 0, nil)
		ab = a.CreateChannel(b, spe)
		ba = a.CreateChannel(spe, b)
		runErr = a.Run(func(ctx *core.Ctx) {
			ctx.RunSPE(spe, 0, nil)
		})
	case 4: // SPE <-> SPE, same Cell node
		s1 := a.CreateSPE(speInit, a.Main(), 0)
		s2 := a.CreateSPE(speEcho, a.Main(), 1)
		ab = a.CreateChannel(s1, s2)
		ba = a.CreateChannel(s2, s1)
		runErr = a.Run(func(ctx *core.Ctx) {
			ctx.RunSPE(s1, 0, nil)
			ctx.RunSPE(s2, 0, nil)
		})
	case 5: // SPE (cell0) <-> SPE (cell1)
		b := a.CreateProcessOn(1, "pp_parent", func(ctx *core.Ctx, _ int, arg any) {
			ctx.RunSPE(arg.(*core.Process), 0, nil)
		}, 0, nil)
		s1 := a.CreateSPE(speInit, a.Main(), 0)
		s2 := a.CreateSPE(speEcho, b, 0)
		b.SetArg(s2)
		ab = a.CreateChannel(s1, s2)
		ba = a.CreateChannel(s2, s1)
		runErr = a.Run(func(ctx *core.Ctx) {
			ctx.RunSPE(s1, 0, nil)
		})
	}
	if runErr != nil {
		return 0, runErr
	}
	if cfg.Stats != nil {
		*cfg.Stats = a.Stats()
	}
	return total, nil
}

// pingPongHandCoded runs the DMA and memory-mapped-copy baselines: the
// code a programmer would write against MPI and libspe2 directly, with no
// Co-Pilot and no format engine.
func pingPongHandCoded(cfg PingPongConfig) (sim.Time, error) {
	c, err := newPingPongCluster(cfg)
	if err != nil {
		return 0, err
	}
	switch cfg.Type {
	case 1:
		return handType1(c, cfg)
	case 2:
		return handType2(c, cfg)
	case 3:
		return handType3(c, cfg)
	case 4:
		return handType4(c, cfg)
	case 5:
		return handType5(c, cfg)
	}
	return 0, fmt.Errorf("workload: bad type %d", cfg.Type)
}

// handType1: plain MPI pingpong between two PPEs; DMA and Copy coincide.
func handType1(c *cluster.Cluster, cfg PingPongConfig) (sim.Time, error) {
	w, err := mpi.NewWorld(c, []mpi.Placement{{Node: 0, Label: "a"}, {Node: 1, Label: "b"}})
	if err != nil {
		return 0, err
	}
	var total sim.Time
	rounds := cfg.Reps + 1
	buf := make([]byte, cfg.Bytes)
	c.K.Spawn("a", func(p *sim.Proc) {
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = p.Now()
			}
			w.Rank(0).Send(p, 1, 0, buf)
			w.Rank(0).Recv(p, 1, 0)
		}
		total = p.Now() - start
	})
	c.K.Spawn("b", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			data, _ := w.Rank(1).Recv(p, 0, 0)
			w.Rank(1).Send(p, 0, 0, data)
		}
	})
	if err := c.K.Run(); err != nil {
		return 0, err
	}
	return total, nil
}

// handType2: PPE <-> local SPE, hand-coded both ways.
func handType2(c *cluster.Cluster, cfg PingPongConfig) (sim.Time, error) {
	node := c.Nodes[0]
	spe, _ := node.SPE(0)
	ctx, err := sdk.ContextCreate(c.K, spe)
	if err != nil {
		return 0, err
	}
	mainBuf, err := node.Mem.Alloc(cellbe.Align(cfg.Bytes, 128), 128)
	if err != nil {
		return 0, err
	}
	rounds := cfg.Reps + 1
	dmaSize := cellbe.Align(cfg.Bytes, 16)
	par := c.Params

	prog := &sdk.Program{Name: "hand_echo", Main: func(sc *sdk.Context, _ int, _ any) {
		p := sc.Proc
		lsAddr, err := sc.SPE.LS.Alloc("buf", dmaSize, 128)
		if err != nil {
			p.Fatalf("%v", err)
		}
		for r := 0; r < rounds; r++ {
			sc.ReadInMbox(p) // "data ready"
			if cfg.Method == MethodDMA {
				if err := sc.MFCGet(p, lsAddr, mainBuf, dmaSize, 1); err != nil {
					p.Fatalf("%v", err)
				}
				sc.TagWait(p, 1<<1)
				if err := sc.MFCPut(p, lsAddr, mainBuf, dmaSize, 2); err != nil {
					p.Fatalf("%v", err)
				}
				sc.TagWait(p, 1<<2)
			}
			// Copy method: the PPE moves the data through the mapped LS;
			// the SPE only synchronizes.
			sc.WriteOutMbox(p, uint32(lsAddr))
		}
	}}
	if err := ctx.Load(prog, 0); err != nil {
		return 0, err
	}
	if err := ctx.Run(0, nil); err != nil {
		return 0, err
	}
	var total sim.Time
	c.K.Spawn("ppe", func(p *sim.Proc) {
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = p.Now()
			}
			if cfg.Method == MethodCopy {
				// PPE copies into the mapped LS...
				p.Advance(par.MemcpyTime(cfg.Bytes))
			}
			ctx.WriteInMbox(p, 1)
			lsAddr := ctx.ReadOutMbox(p)
			if cfg.Method == MethodCopy {
				// ...and back out of it.
				_ = lsAddr
				p.Advance(par.MemcpyTime(cfg.Bytes))
			}
		}
		total = p.Now() - start
	})
	if err := c.K.Run(); err != nil {
		return 0, err
	}
	return total, nil
}

// handType3: remote PPE <-> SPE, staged through a hand-coded PPE helper on
// the SPE's node.
func handType3(c *cluster.Cluster, cfg PingPongConfig) (sim.Time, error) {
	w, err := mpi.NewWorld(c, []mpi.Placement{{Node: 1, Label: "remote"}, {Node: 0, Label: "helper"}})
	if err != nil {
		return 0, err
	}
	node := c.Nodes[0]
	spe, _ := node.SPE(0)
	ctx, err := sdk.ContextCreate(c.K, spe)
	if err != nil {
		return 0, err
	}
	mainBuf, err := node.Mem.Alloc(cellbe.Align(cfg.Bytes, 128), 128)
	if err != nil {
		return 0, err
	}
	rounds := cfg.Reps + 1
	dmaSize := cellbe.Align(cfg.Bytes, 16)
	par := c.Params

	prog := &sdk.Program{Name: "hand_echo3", Main: func(sc *sdk.Context, _ int, _ any) {
		p := sc.Proc
		lsAddr, err := sc.SPE.LS.Alloc("buf", dmaSize, 128)
		if err != nil {
			p.Fatalf("%v", err)
		}
		for r := 0; r < rounds; r++ {
			sc.ReadInMbox(p)
			if cfg.Method == MethodDMA {
				sc.MFCGet(p, lsAddr, mainBuf, dmaSize, 1)
				sc.TagWait(p, 1<<1)
				sc.MFCPut(p, lsAddr, mainBuf, dmaSize, 2)
				sc.TagWait(p, 1<<2)
			}
			sc.WriteOutMbox(p, uint32(lsAddr))
		}
	}}
	if err := ctx.Load(prog, 0); err != nil {
		return 0, err
	}
	if err := ctx.Run(0, nil); err != nil {
		return 0, err
	}
	var total sim.Time
	c.K.Spawn("remote", func(p *sim.Proc) {
		buf := make([]byte, cfg.Bytes)
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = p.Now()
			}
			w.Rank(0).Send(p, 1, 0, buf)
			w.Rank(0).Recv(p, 1, 0)
		}
		total = p.Now() - start
	})
	c.K.Spawn("helper", func(p *sim.Proc) {
		segs, _ := node.Mem.Segments(mainBuf, cfg.Bytes, nil)
		for r := 0; r < rounds; r++ {
			w.Rank(1).RecvIntoVec(p, 0, 0, segs...)
			if cfg.Method == MethodCopy {
				p.Advance(par.MemcpyTime(cfg.Bytes))
			}
			ctx.WriteInMbox(p, 1)
			ctx.ReadOutMbox(p)
			if cfg.Method == MethodCopy {
				p.Advance(par.MemcpyTime(cfg.Bytes))
			}
			w.Rank(1).SendVec(p, 0, 0, segs...)
		}
	})
	if err := c.K.Run(); err != nil {
		return 0, err
	}
	return total, nil
}

// handType4: SPE <-> local SPE, staged through main memory (two DMAs per
// direction for the DMA method; two mapped copies by a PPE helper for the
// Copy method).
func handType4(c *cluster.Cluster, cfg PingPongConfig) (sim.Time, error) {
	node := c.Nodes[0]
	s1, _ := node.SPE(0)
	s2, _ := node.SPE(1)
	ctx1, err := sdk.ContextCreate(c.K, s1)
	if err != nil {
		return 0, err
	}
	ctx2, err := sdk.ContextCreate(c.K, s2)
	if err != nil {
		return 0, err
	}
	mainBuf, err := node.Mem.Alloc(cellbe.Align(cfg.Bytes, 128), 128)
	if err != nil {
		return 0, err
	}
	rounds := cfg.Reps + 1
	dmaSize := cellbe.Align(cfg.Bytes, 16)
	par := c.Params
	var total sim.Time

	// Initiator SPE: sends, then waits for the echo.
	prog1 := &sdk.Program{Name: "hand4_init", Main: func(sc *sdk.Context, _ int, _ any) {
		p := sc.Proc
		lsAddr, _ := sc.SPE.LS.Alloc("buf", dmaSize, 128)
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = p.Now()
			}
			if cfg.Method == MethodDMA {
				sc.MFCPut(p, lsAddr, mainBuf, dmaSize, 1)
				sc.TagWait(p, 1<<1)
			}
			sc.WriteOutMbox(p, 1) // tell the helper/peer data is staged
			sc.ReadInMbox(p)      // wait for the echo to be staged
			if cfg.Method == MethodDMA {
				sc.MFCGet(p, lsAddr, mainBuf, dmaSize, 2)
				sc.TagWait(p, 1<<2)
			}
		}
		total = p.Now() - start
	}}
	prog2 := &sdk.Program{Name: "hand4_echo", Main: func(sc *sdk.Context, _ int, _ any) {
		p := sc.Proc
		lsAddr, _ := sc.SPE.LS.Alloc("buf", dmaSize, 128)
		for r := 0; r < rounds; r++ {
			sc.ReadInMbox(p)
			if cfg.Method == MethodDMA {
				sc.MFCGet(p, lsAddr, mainBuf, dmaSize, 1)
				sc.TagWait(p, 1<<1)
				sc.MFCPut(p, lsAddr, mainBuf, dmaSize, 2)
				sc.TagWait(p, 1<<2)
			}
			sc.WriteOutMbox(p, 1)
		}
	}}
	if err := ctx1.Load(prog1, 0); err != nil {
		return 0, err
	}
	if err := ctx2.Load(prog2, 0); err != nil {
		return 0, err
	}
	if err := ctx1.Run(0, nil); err != nil {
		return 0, err
	}
	if err := ctx2.Run(0, nil); err != nil {
		return 0, err
	}
	// PPE helper relays the mailbox signals (and does the copies for the
	// Copy method — one mapped read plus one mapped write per hop).
	c.K.Spawn("helper", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			ctx1.ReadOutMbox(p)
			if cfg.Method == MethodCopy {
				p.Advance(2 * par.MemcpyTime(cfg.Bytes))
			}
			ctx2.WriteInMbox(p, 1)
			ctx2.ReadOutMbox(p)
			if cfg.Method == MethodCopy {
				p.Advance(2 * par.MemcpyTime(cfg.Bytes))
			}
			ctx1.WriteInMbox(p, 1)
		}
	})
	if err := c.K.Run(); err != nil {
		return 0, err
	}
	return total, nil
}

// handType5: SPE <-> remote SPE through two PPE helpers and MPI.
func handType5(c *cluster.Cluster, cfg PingPongConfig) (sim.Time, error) {
	w, err := mpi.NewWorld(c, []mpi.Placement{{Node: 0, Label: "h0"}, {Node: 1, Label: "h1"}})
	if err != nil {
		return 0, err
	}
	rounds := cfg.Reps + 1
	dmaSize := cellbe.Align(cfg.Bytes, 16)
	par := c.Params
	var total sim.Time

	type side struct {
		node *cellbe.Node
		ctx  *sdk.Context
		buf  int64
	}
	mkSide := func(nodeIdx int, prog *sdk.Program) (*side, error) {
		node := c.Nodes[nodeIdx]
		spe, _ := node.SPE(0)
		ctx, err := sdk.ContextCreate(c.K, spe)
		if err != nil {
			return nil, err
		}
		buf, err := node.Mem.Alloc(cellbe.Align(cfg.Bytes, 128), 128)
		if err != nil {
			return nil, err
		}
		if err := ctx.Load(prog, 0); err != nil {
			return nil, err
		}
		return &side{node: node, ctx: ctx, buf: buf}, nil
	}
	var s0, s1 *side
	prog0 := &sdk.Program{Name: "hand5_init", Main: func(sc *sdk.Context, _ int, _ any) {
		p := sc.Proc
		lsAddr, _ := sc.SPE.LS.Alloc("buf", dmaSize, 128)
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = p.Now()
			}
			if cfg.Method == MethodDMA {
				sc.MFCPut(p, lsAddr, s0.buf, dmaSize, 1)
				sc.TagWait(p, 1<<1)
			}
			sc.WriteOutMbox(p, 1)
			sc.ReadInMbox(p)
			if cfg.Method == MethodDMA {
				sc.MFCGet(p, lsAddr, s0.buf, dmaSize, 2)
				sc.TagWait(p, 1<<2)
			}
		}
		total = p.Now() - start
	}}
	prog1 := &sdk.Program{Name: "hand5_echo", Main: func(sc *sdk.Context, _ int, _ any) {
		p := sc.Proc
		lsAddr, _ := sc.SPE.LS.Alloc("buf", dmaSize, 128)
		for r := 0; r < rounds; r++ {
			sc.ReadInMbox(p)
			if cfg.Method == MethodDMA {
				sc.MFCGet(p, lsAddr, s1.buf, dmaSize, 1)
				sc.TagWait(p, 1<<1)
				sc.MFCPut(p, lsAddr, s1.buf, dmaSize, 2)
				sc.TagWait(p, 1<<2)
			}
			sc.WriteOutMbox(p, 1)
		}
	}}
	if s0, err = mkSide(0, prog0); err != nil {
		return 0, err
	}
	if s1, err = mkSide(1, prog1); err != nil {
		return 0, err
	}
	if err := s0.ctx.Run(0, nil); err != nil {
		return 0, err
	}
	if err := s1.ctx.Run(0, nil); err != nil {
		return 0, err
	}
	c.K.Spawn("h0", func(p *sim.Proc) {
		segs, _ := s0.node.Mem.Segments(s0.buf, cfg.Bytes, nil)
		for r := 0; r < rounds; r++ {
			s0.ctx.ReadOutMbox(p)
			if cfg.Method == MethodCopy {
				p.Advance(par.MemcpyTime(cfg.Bytes)) // LS -> main via mapping
			}
			w.Rank(0).SendVec(p, 1, 0, segs...)
			w.Rank(0).RecvIntoVec(p, 1, 0, segs...)
			if cfg.Method == MethodCopy {
				p.Advance(par.MemcpyTime(cfg.Bytes)) // main -> LS via mapping
			}
			s0.ctx.WriteInMbox(p, 1)
		}
	})
	c.K.Spawn("h1", func(p *sim.Proc) {
		segs, _ := s1.node.Mem.Segments(s1.buf, cfg.Bytes, nil)
		for r := 0; r < rounds; r++ {
			w.Rank(1).RecvIntoVec(p, 0, 0, segs...)
			if cfg.Method == MethodCopy {
				p.Advance(par.MemcpyTime(cfg.Bytes))
			}
			s1.ctx.WriteInMbox(p, 1)
			s1.ctx.ReadOutMbox(p)
			if cfg.Method == MethodCopy {
				p.Advance(par.MemcpyTime(cfg.Bytes))
			}
			w.Rank(1).SendVec(p, 0, 0, segs...)
		}
	})
	if err := c.K.Run(); err != nil {
		return 0, err
	}
	return total, nil
}
