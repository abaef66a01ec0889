// Command cellpilot-trace runs a demonstration CellPilot application with
// the communication recorder and meter attached and prints the event
// timeline, per-channel statistics and per-channel-type metrics — a view
// of what the Co-Pilot moves around during a run, at zero virtual-time
// cost (traced runs keep the calibrated timings exactly).
//
// Exporters (all optional, "-" means stdout):
//
//	cellpilot-trace -chrome out.json    # Chrome trace_event JSON (Perfetto)
//	cellpilot-trace -json out.jsonl     # event timeline as JSON lines
//	cellpilot-trace -metrics out.json   # metric registry as JSON
//	cellpilot-trace -top                # utilization: procs, channels, links
//	cellpilot-trace -timeline           # windowed telemetry sparklines
//	cellpilot-trace -flows              # traffic heatmap + top-K flow table
//
// -timeline also folds per-window counter tracks into the -chrome export,
// so Perfetto renders backlog, utilization and saturation as counter
// graphs above the span tracks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cellpilot"
	"cellpilot/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// writeOut opens path for an exporter ("-" = stdout) and runs fn on it.
func writeOut(path string, stdout io.Writer, fn func(w io.Writer) error) error {
	if path == "-" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is the command: it parses args, runs the demonstration application
// and writes the report to stdout and every requested export to its file.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cellpilot-trace", flag.ContinueOnError)
	rounds := fs.Int("rounds", 5, "pingpong rounds per channel type")
	events := fs.Int("events", 40, "timeline events to print")
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to this file (\"-\" = stdout)")
	jsonl := fs.String("json", "", "write the event timeline as JSON lines to this file (\"-\" = stdout)")
	metricsOut := fs.String("metrics", "", "write the metric registry as JSON to this file (\"-\" = stdout)")
	spans := fs.Int("spans", 10, "transfer spans to print")
	top := fs.Bool("top", false, "print the per-process / per-channel-type utilization table")
	critpathOn := fs.Bool("critpath", false, "print the critical-path blame report (per-stage service vs queueing)")
	folded := fs.String("folded", "", "with -critpath: write folded critical-path stacks to this file (\"-\" = stdout)")
	timelineOn := fs.Bool("timeline", false, "record and print the windowed telemetry timeline (sparklines, peaks, recovery)")
	timelineWindow := fs.Duration("timeline-window", 0, "with -timeline: virtual-time bucket width (0 = 100µs)")
	flowsOn := fs.Bool("flows", false, "record and print the flow observatory (node×node traffic heatmap, top-K flows, per-resource breakdown)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	clu, err := cellpilot.NewCluster(cellpilot.ClusterSpec{CellNodes: 2})
	if err != nil {
		return err
	}
	app := cellpilot.NewApp(clu, cellpilot.Options{})
	rec := cellpilot.NewTraceRecorder(0)
	app.Trace = rec
	meter := cellpilot.NewMeter()
	app.Metrics = meter
	var tl *cellpilot.Timeline
	if *timelineOn {
		tl = cellpilot.NewTimeline(cellpilot.Time(timelineWindow.Nanoseconds()))
		app.Timeline = tl
	}
	if *flowsOn {
		app.Flows = cellpilot.NewFlowmap(0)
	}

	// One channel pair of each Table I flavour: type 1 (PPE↔remote PPE),
	// type 2 (PPE↔local SPE), type 3 (PPE↔remote SPE), type 4 (SPE↔SPE
	// same blade) and type 5 (SPE↔remote SPE).
	var t1down, t1up, t2down, t2up, t3down, t3up, t4ab, t4ba, t5ab, t5ba *cellpilot.Channel
	n := *rounds
	mkEcho := func(down, up **cellpilot.Channel) *cellpilot.SPEProgram {
		return &cellpilot.SPEProgram{Name: "echo", Body: func(ctx *cellpilot.SPECtx) {
			buf := make([]int32, 32)
			for r := 0; r < n; r++ {
				ctx.Read(*down, "%32d", buf)
				ctx.Write(*up, "%32d", buf)
			}
		}}
	}
	mkInit := func(up, down **cellpilot.Channel) *cellpilot.SPEProgram {
		return &cellpilot.SPEProgram{Name: "init", Body: func(ctx *cellpilot.SPECtx) {
			buf := make([]int32, 32)
			for r := 0; r < n; r++ {
				ctx.Write(*up, "%32d", buf)
				ctx.Read(*down, "%32d", buf)
			}
		}}
	}

	spe2 := app.CreateSPE(mkEcho(&t2down, &t2up), app.Main(), 0)
	spe4a := app.CreateSPE(mkInit(&t4ab, &t4ba), app.Main(), 1)
	spe4b := app.CreateSPE(mkEcho(&t4ab, &t4ba), app.Main(), 2)
	parent := app.CreateProcessOn(1, "parent", func(ctx *cellpilot.Ctx, _ int, arg any) {
		procs := arg.([]*cellpilot.Process)
		for _, sp := range procs {
			ctx.RunSPE(sp, 0, nil)
		}
		buf := make([]int32, 32)
		for r := 0; r < n; r++ {
			ctx.Read(t1down, "%32d", buf)
			ctx.Write(t1up, "%32d", buf)
		}
	}, 0, nil)
	spe5a := app.CreateSPE(mkInit(&t5ab, &t5ba), app.Main(), 3)
	spe5b := app.CreateSPE(mkEcho(&t5ab, &t5ba), parent, 0)
	spe3 := app.CreateSPE(mkEcho(&t3down, &t3up), parent, 1)
	parent.SetArg([]*cellpilot.Process{spe5b, spe3})

	t1down = app.CreateChannel(app.Main(), parent)
	t1up = app.CreateChannel(parent, app.Main())
	t2down = app.CreateChannel(app.Main(), spe2)
	t2up = app.CreateChannel(spe2, app.Main())
	t3down = app.CreateChannel(app.Main(), spe3)
	t3up = app.CreateChannel(spe3, app.Main())
	t4ab = app.CreateChannel(spe4a, spe4b)
	t4ba = app.CreateChannel(spe4b, spe4a)
	t5ab = app.CreateChannel(spe5a, spe5b)
	t5ba = app.CreateChannel(spe5b, spe5a)
	all := []*cellpilot.Channel{t1down, t1up, t2down, t2up, t3down, t3up, t4ab, t4ba, t5ab, t5ba}
	for _, ch := range all {
		ch.SetName(fmt.Sprintf("%s/%d", ch.Type(), ch.ID()))
	}

	err = app.Run(func(ctx *cellpilot.Ctx) {
		ctx.RunSPE(spe2, 0, nil)
		ctx.RunSPE(spe4a, 0, nil)
		ctx.RunSPE(spe4b, 0, nil)
		ctx.RunSPE(spe5a, 0, nil)
		buf := make([]int32, 32)
		for r := 0; r < n; r++ {
			ctx.Write(t1down, "%32d", buf)
			ctx.Read(t1up, "%32d", buf)
			ctx.Write(t2down, "%32d", buf)
			ctx.Read(t2up, "%32d", buf)
			ctx.Write(t3down, "%32d", buf)
			ctx.Read(t3up, "%32d", buf)
		}
	})
	if err != nil {
		return err
	}

	if tl != nil {
		// Fold the timeline's window samples into the Chrome export as
		// counter tracks; the recorder renders them as ph:"C" events.
		var pts []trace.CounterPoint
		for _, p := range tl.Points() {
			pts = append(pts, trace.CounterPoint{At: p.At, Name: p.Series, Value: p.Value})
		}
		rec.SetCounters(pts)
	}
	if *chrome != "" {
		if err := writeOut(*chrome, stdout, rec.WriteChrome); err != nil {
			return err
		}
		if *chrome != "-" {
			fmt.Fprintf(stdout, "chrome trace written to %s (load in Perfetto or chrome://tracing)\n", *chrome)
		}
	}
	if *jsonl != "" {
		if err := writeOut(*jsonl, stdout, rec.WriteJSONL); err != nil {
			return err
		}
		if *jsonl != "-" {
			fmt.Fprintf(stdout, "event timeline written to %s\n", *jsonl)
		}
	}
	if *metricsOut != "" {
		err := writeOut(*metricsOut, stdout, func(w io.Writer) error {
			data, err := meter.Registry().MarshalJSON()
			if err != nil {
				return err
			}
			_, err = w.Write(append(data, '\n'))
			return err
		})
		if err != nil {
			return err
		}
		if *metricsOut != "-" {
			fmt.Fprintf(stdout, "metrics written to %s\n", *metricsOut)
		}
	}

	fmt.Fprintf(stdout, "timeline (first %d of %d events):\n", *events, len(rec.Events()))
	for i, ev := range rec.Events() {
		if i >= *events {
			break
		}
		fmt.Fprintf(stdout, "  [%12s] %-7s ch=%-3d %5dB  %s\n", ev.At, ev.Kind, ev.Channel, ev.Bytes, ev.Proc)
	}
	fmt.Fprintln(stdout)
	allSpans := rec.Spans()
	fmt.Fprintf(stdout, "transfer spans (first %d of %d):\n", *spans, len(allSpans))
	for i, sp := range allSpans {
		if i >= *spans {
			break
		}
		fmt.Fprintf(stdout, "  #%-4d ch=%-3d type%d %5dB %10s:", sp.ID, sp.Channel, sp.ChanType, sp.Bytes, sp.Dur())
		for _, ph := range sp.Phases {
			fmt.Fprintf(stdout, " %s=%s", ph.Phase, ph.Dur())
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rec.Summary())
	fmt.Fprintln(stdout)
	st := app.Stats()
	fmt.Fprint(stdout, st)
	if st.Timeline != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, st.Timeline.String())
	}
	if st.Flows != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, st.Flows.String())
	}
	if *top {
		fmt.Fprintln(stdout)
		printTop(stdout, st)
	}
	if *critpathOn && st.CritPath != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, st.CritPath.Table())
		if *folded != "" {
			if err := writeOut(*folded, stdout, st.CritPath.FoldedStacks); err != nil {
				return err
			}
			if *folded != "-" {
				fmt.Fprintf(stdout, "folded critical-path stacks written to %s\n", *folded)
			}
		}
	}
	return nil
}

// printTop renders the utilization view: where each process's virtual
// lifetime went, how loaded each channel type, Co-Pilot and interconnect
// link ran.
func printTop(w io.Writer, st cellpilot.Stats) {
	pct := func(part, total cellpilot.Time) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	fmt.Fprintln(w, "top: per-process virtual-time utilization")
	fmt.Fprintf(w, "  %-28s %12s %8s %8s %8s %8s\n", "process", "lifetime", "compute", "read", "write", "mbox")
	for _, pt := range st.ProcTimes {
		fmt.Fprintf(w, "  %-28s %12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			pt.Process, pt.Total,
			pct(pt.Compute, pt.Total), pct(pt.BlockedRead, pt.Total),
			pct(pt.BlockedWrite, pt.Total), pct(pt.MailboxWait, pt.Total))
	}
	fmt.Fprintln(w, "top: per-channel-type load")
	fmt.Fprintf(w, "  %-6s %8s %10s %12s %12s %14s %8s\n",
		"type", "ops", "bytes", "p50 lat", "p99 lat", "p50 bw", "backlog")
	for _, ct := range st.ChannelTypes {
		bw := "-"
		if ct.BandwidthMBps != nil && ct.BandwidthMBps.Count() > 0 {
			bw = fmt.Sprintf("%.1fMB/s", ct.BandwidthMBps.Quantile(0.5))
		}
		fmt.Fprintf(w, "  %-6s %8d %10d %10.1fus %10.1fus %14s %8d\n",
			ct.Type, ct.Ops, ct.Bytes,
			ct.LatencyUs.Quantile(0.5), ct.LatencyUs.Quantile(0.99), bw, ct.BacklogHighWater)
	}
	fmt.Fprintln(w, "top: co-pilot service loops")
	for _, cp := range st.CoPilots {
		fmt.Fprintf(w, "  copilot@node%-2d busy %12s  %5.1f%% utilized  (%d reqs)\n",
			cp.Node, cp.Busy, 100*cp.Utilization, cp.WriteReqs+cp.ReadReqs)
	}
	fmt.Fprintln(w, "top: interconnect links")
	for _, lu := range st.Links {
		fmt.Fprintf(w, "  %-6s busy %12s  %5.1f%% saturated\n", lu.Name, lu.Busy, 100*lu.Utilization)
	}
	fmt.Fprintln(w, "top: SPE mailbox high-water marks and MFC DMA engines")
	for _, spe := range st.SPEs {
		fmt.Fprintf(w, "  %-28s in=%d/4 out=%d/1  mfc-dma busy %12s  %5.1f%% utilized\n",
			spe.Process, spe.InMboxHighWater, spe.OutMboxHighWater, spe.DMABusy, 100*spe.DMAUtilization)
	}
}
