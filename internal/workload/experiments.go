package workload

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

// Table2Row is one (type, size) row of paper Table II with all three
// methods measured.
type Table2Row struct {
	Type  int
	Bytes int
	// One-way latencies.
	CellPilot, DMA, Copy sim.Time
}

// PaperTable2 is the published Table II (µs one-way), used for
// paper-vs-measured reporting.
var PaperTable2 = map[[2]int][3]float64{
	{1, 1}:    {105, 98, 98},
	{1, 1600}: {173, 160, 160},
	{2, 1}:    {59, 15, 15},
	{2, 1600}: {76, 15, 30},
	{3, 1}:    {140, 114, 107},
	{3, 1600}: {219, 181, 175},
	{4, 1}:    {112, 30, 30},
	{4, 1600}: {123, 30, 60},
	{5, 1}:    {189, 131, 117},
	{5, 1600}: {263, 195, 194},
}

// Table2 measures the full Table II grid: 5 channel types × {1, 1600}
// bytes × {CellPilot, DMA, Copy}, reps round trips each.
func Table2(reps int) ([]Table2Row, error) {
	var rows []Table2Row
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			row := Table2Row{Type: typ, Bytes: bytes}
			for _, m := range []Method{MethodCellPilot, MethodDMA, MethodCopy} {
				res, err := PingPong(PingPongConfig{Type: typ, Bytes: bytes, Method: m, Reps: reps})
				if err != nil {
					return nil, fmt.Errorf("type %d %dB %s: %w", typ, bytes, m, err)
				}
				switch m {
				case MethodCellPilot:
					row.CellPilot = res.OneWay
				case MethodDMA:
					row.DMA = res.OneWay
				case MethodCopy:
					row.Copy = res.OneWay
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable2 renders the measured grid against the paper's numbers.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — CellPilot vs hand-coded timing (µs, one-way)\n")
	fmt.Fprintf(&b, "%-5s %-6s | %-18s | %-18s | %-18s\n", "Type", "Bytes", "CellPilot", "DMA", "Copy")
	fmt.Fprintf(&b, "%-5s %-6s | %8s %9s | %8s %9s | %8s %9s\n", "", "", "measured", "paper", "measured", "paper", "measured", "paper")
	for _, r := range rows {
		p := PaperTable2[[2]int{r.Type, r.Bytes}]
		fmt.Fprintf(&b, "%-5d %-6d | %8.1f %9.0f | %8.1f %9.0f | %8.1f %9.0f\n",
			r.Type, r.Bytes, r.CellPilot.Micros(), p[0], r.DMA.Micros(), p[1], r.Copy.Micros(), p[2])
	}
	return b.String()
}

// Figure5Bar is one bar of paper Figure 5: per (type, method), the solid
// 1-byte latency and the hashed 1600-byte top.
type Figure5Bar struct {
	Type    int
	Method  Method
	OneByte sim.Time
	Array   sim.Time
}

// Figure5 derives the Figure 5 bar series from the Table II grid.
func Figure5(rows []Table2Row) []Figure5Bar {
	pick := func(r Table2Row, m Method) sim.Time {
		switch m {
		case MethodCellPilot:
			return r.CellPilot
		case MethodDMA:
			return r.DMA
		default:
			return r.Copy
		}
	}
	byKey := map[[2]int]Table2Row{}
	for _, r := range rows {
		byKey[[2]int{r.Type, r.Bytes}] = r
	}
	var bars []Figure5Bar
	for typ := 1; typ <= 5; typ++ {
		for _, m := range []Method{MethodCellPilot, MethodDMA, MethodCopy} {
			bars = append(bars, Figure5Bar{
				Type:    typ,
				Method:  m,
				OneByte: pick(byKey[[2]int{typ, 1}], m),
				Array:   pick(byKey[[2]int{typ, 1600}], m),
			})
		}
	}
	return bars
}

// FormatFigure5 renders the bars as an ASCII chart (solid = 1 byte,
// hashed top = 1600 bytes), the shape of paper Figure 5.
func FormatFigure5(bars []Figure5Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — latencies for CellPilot vs hand-coded transfers\n")
	fmt.Fprintf(&b, "(each bar: '#' = 1-byte latency, '/' = additional time for 1600 bytes; 1 char = 5 µs)\n")
	for _, bar := range bars {
		solid := int(bar.OneByte.Micros() / 5)
		hash := int((bar.Array - bar.OneByte).Micros() / 5)
		if hash < 0 {
			hash = 0
		}
		fmt.Fprintf(&b, "type%d %-9s |%s%s %.0f/%.0f us\n",
			bar.Type, bar.Method, strings.Repeat("#", solid), strings.Repeat("/", hash),
			bar.OneByte.Micros(), bar.Array.Micros())
	}
	return b.String()
}

// Figure6Point is one point of paper Figure 6: throughput of the
// 1600-byte array case.
type Figure6Point struct {
	Type   int
	Method Method
	MBps   float64
}

// Figure6 derives the throughput series from the Table II grid.
func Figure6(rows []Table2Row) []Figure6Point {
	var pts []Figure6Point
	for _, r := range rows {
		if r.Bytes != 1600 {
			continue
		}
		for m, t := range map[Method]sim.Time{
			MethodCellPilot: r.CellPilot, MethodDMA: r.DMA, MethodCopy: r.Copy,
		} {
			pts = append(pts, Figure6Point{Type: r.Type, Method: m,
				MBps: 1600 / (float64(t) / float64(sim.Second)) / 1e6})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Type != pts[j].Type {
			return pts[i].Type < pts[j].Type
		}
		return pts[i].Method < pts[j].Method
	})
	return pts
}

// FormatFigure6 renders the throughput chart.
func FormatFigure6(pts []Figure6Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — throughput for the 100-long-double array (MB/s; 1 char = 2 MB/s)\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "type%d %-9s |%s %.1f MB/s\n",
			p.Type, p.Method, strings.Repeat("=", int(p.MBps/2)), p.MBps)
	}
	return b.String()
}

// CodeSizeRow is one row of the programmability comparison (paper
// Section IV.C: 80 vs 186 vs 114 lines).
type CodeSizeRow struct {
	Variant    string
	File       string
	Lines      int
	PaperLines int
}

// CodeSizes counts the effective lines (non-blank, non-comment) of the
// three relay example programs under repoRoot.
func CodeSizes(repoRoot string) ([]CodeSizeRow, error) {
	rows := []CodeSizeRow{
		{Variant: "CellPilot", File: "examples/relay_cellpilot/main.go", PaperLines: 80},
		{Variant: "DaCS", File: "examples/relay_dacs/main.go", PaperLines: 114},
		{Variant: "Cell SDK", File: "examples/relay_sdk/main.go", PaperLines: 186},
	}
	for i := range rows {
		n, err := countCodeLines(filepath.Join(repoRoot, rows[i].File))
		if err != nil {
			return nil, err
		}
		rows[i].Lines = n
	}
	return rows, nil
}

func countCodeLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n, sc.Err()
}

// FormatCodeSizes renders the comparison.
func FormatCodeSizes(rows []CodeSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Programmability — lines of code for the 3-hop relay (Section IV.C)\n")
	fmt.Fprintf(&b, "%-10s %-36s %8s %8s\n", "Variant", "File", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-36s %8d %8d\n", r.Variant, r.File, r.Lines, r.PaperLines)
	}
	return b.String()
}

// FootprintRow is one row of the SPE memory-footprint experiment (paper
// Section V: cellpilot.o = 10336 bytes vs libdacs.a = 36600 bytes).
type FootprintRow struct {
	Library   string
	Footprint int
	// UsableLS is what remains for application buffers after the library,
	// a default program image and the stack reserve.
	UsableLS int
	// MaxMessage is the largest single message the SPE stub can stage.
	MaxMessage int
}

// Footprints computes the local-store budget under each library.
func Footprints(par *cellbe.Params) []FootprintRow {
	if par == nil {
		par = cellbe.DefaultParams()
	}
	mk := func(name string, fp int) FootprintRow {
		ls := cellbe.NewLocalStore(par.LSSize)
		image := fp + par.DefaultCodeSize + par.StackReserve
		if err := ls.LoadImage(name, image); err != nil {
			return FootprintRow{Library: name, Footprint: fp}
		}
		usable := ls.Free()
		// Largest single staging buffer (16-byte aligned).
		max := usable &^ 15
		return FootprintRow{Library: name, Footprint: fp, UsableLS: usable, MaxMessage: max}
	}
	return []FootprintRow{
		mk("CellPilot (cellpilot.o)", par.CellPilotFootprint),
		mk("DaCS (libdacs.a)", par.DaCSFootprint),
	}
}

// FormatFootprints renders the footprint table.
func FormatFootprints(rows []FootprintRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SPE local-store footprint (Section V; 256 KB total)\n")
	fmt.Fprintf(&b, "%-26s %10s %12s %12s\n", "Library", "resident", "usable LS", "max message")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10d %12d %12d\n", r.Library, r.Footprint, r.UsableLS, r.MaxMessage)
	}
	return b.String()
}

// AblationDirectLocal measures the A1 ablation: type-2 latency with the
// paper's MPI path versus the direct shared-memory handoff its Section V
// analysis suggests.
func AblationDirectLocal(reps int) (mpiPath, direct [2]sim.Time, err error) {
	for i, bytes := range []int{1, 1600} {
		r, e := PingPong(PingPongConfig{Type: 2, Bytes: bytes, Method: MethodCellPilot, Reps: reps})
		if e != nil {
			return mpiPath, direct, e
		}
		mpiPath[i] = r.OneWay
		r, e = PingPong(PingPongConfig{Type: 2, Bytes: bytes, Method: MethodCellPilot, Reps: reps, DirectLocal: true})
		if e != nil {
			return mpiPath, direct, e
		}
		direct[i] = r.OneWay
	}
	return mpiPath, direct, nil
}

// AblationPoll measures the A2 ablation: type-4 latency versus the
// Co-Pilot polling interval.
func AblationPoll(intervals []sim.Time, reps int) (map[sim.Time]sim.Time, error) {
	out := map[sim.Time]sim.Time{}
	for _, iv := range intervals {
		par := cellbe.DefaultParams()
		par.CoPilotPoll = iv
		r, err := PingPong(PingPongConfig{Type: 4, Bytes: 1, Method: MethodCellPilot, Reps: reps, Params: par})
		if err != nil {
			return nil, err
		}
		out[iv] = r.OneWay
	}
	return out, nil
}

// AblationEager measures the A3 ablation: type-1 latency across payload
// sizes under different eager/rendezvous thresholds.
func AblationEager(sizes []int, thresholds []int, reps int) (map[[2]int]sim.Time, error) {
	out := map[[2]int]sim.Time{}
	for _, th := range thresholds {
		for _, sz := range sizes {
			par := cellbe.DefaultParams()
			par.EagerThreshold = th
			r, err := PingPong(PingPongConfig{Type: 1, Bytes: sz, Method: MethodCellPilot, Reps: reps, Params: par})
			if err != nil {
				return nil, err
			}
			out[[2]int{th, sz}] = r.OneWay
		}
	}
	return out, nil
}
