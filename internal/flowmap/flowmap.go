// Package flowmap is the cluster flow observatory: an always-on flow
// accounting sink that classifies every delivered channel message into a
// flow — (source process, destination process, channel type, route) —
// and aggregates per-flow messages, bytes and latency plus per-hop byte
// and occupancy attribution. The result is (a) a node×node traffic
// matrix fed by the MPI delivery hook, (b) a per-link / per-Co-Pilot
// breakdown naming the top contributing flows of every shared resource,
// and (c) a deterministic top-K heavy-hitter table.
//
// Counting is exact, never sampled: the flow table is bounded
// (DefaultMaxFlows) with an overflow bucket that keeps totals exact when
// a workload exceeds the bound, and there are no randomized sketches, so
// fingerprints are bit-stable across runs, whether a run is alone or
// concurrent with others (the map is per-App state updated in per-App
// event order, which no other kernel touches).
//
// Like every other observability sink in this repo the map only ever
// observes — it never advances virtual time — so attaching one keeps the
// virtual timeline bit-for-bit identical to a bare run.
package flowmap

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"cellpilot/internal/sim"
)

// Canonical route strings — the ordered hop taxonomy of the paper's five
// channel types. Types 2 and 3 are asymmetric (the SPE side differs from
// the PPE side), so five channel types yield seven routes.
const (
	RoutePPEtoPPE    = "ppe->mpi->ppe"                   // type 1
	RoutePPEtoSPE    = "ppe->copilot->spe"               // type 2, PPE writes
	RouteSPEtoPPE    = "spe->copilot->ppe"               // type 2, SPE writes
	RoutePPEtoRemSPE = "ppe->mpi->copilot->spe"          // type 3, PPE writes
	RouteRemSPEtoPPE = "spe->copilot->mpi->ppe"          // type 3, SPE writes
	RouteSPEtoSPE    = "spe->copilot->spe"               // type 4
	RouteSPEtoRemSPE = "spe->copilot->mpi->copilot->spe" // type 5
)

// Routes lists every canonical route string, in channel-type order. The
// scenario DSL validates `flow` assertions against this vocabulary.
func Routes() []string {
	return []string{
		RoutePPEtoPPE,
		RoutePPEtoSPE, RouteSPEtoPPE,
		RoutePPEtoRemSPE, RouteRemSPEtoPPE,
		RouteSPEtoSPE,
		RouteSPEtoRemSPE,
	}
}

// ValidRoute reports whether s is one of the canonical route strings.
func ValidRoute(s string) bool {
	for _, r := range Routes() {
		if r == s {
			return true
		}
	}
	return false
}

// DefaultMaxFlows bounds the exact flow table. Every workload in this
// repo is far below it; a synthetic run with more distinct flows keeps
// exact totals through the overflow bucket.
const DefaultMaxFlows = 512

// overflowKey labels the overflow bucket in tables and contributions.
const overflowKey = "(overflow)"

// Key identifies one flow.
type Key struct {
	// Src and Dst are the endpoint process names (Process.String()).
	Src, Dst string
	// Type is the Table I channel type (1..5).
	Type int
	// Route is the canonical hop list (one of Routes()).
	Route string
}

func (k Key) String() string {
	return fmt.Sprintf("%s->%s type%d via %s", k.Src, k.Dst, k.Type, k.Route)
}

// flow is one exact per-flow accumulator.
type flow struct {
	key    Key
	msgs   int64
	bytes  int64
	latSum sim.Time
	latMax sim.Time
}

// contrib is one flow's contribution to a shared resource.
type contrib struct {
	key   Key
	bytes int64
	busy  sim.Time
}

// resource is one shared hop (a Co-Pilot service loop or a NIC) with its
// flow-attributed load and, for NICs, the wire-level truth from the
// interconnect hook (which counts retransmits and control frames too).
type resource struct {
	name       string
	bytes      int64
	busy       sim.Time
	wireFrames int64
	wireBytes  int64
	contribs   []*contrib
	cIdx       map[Key]*contrib
}

func (r *resource) add(k Key, bytes int64, busy sim.Time) {
	c := r.cIdx[k]
	if c == nil {
		c = &contrib{key: k}
		r.cIdx[k] = c
		r.contribs = append(r.contribs, c)
	}
	c.bytes += bytes
	c.busy += busy
	r.bytes += bytes
	r.busy += busy
}

// routeAgg is one route's aggregate across flows.
type routeAgg struct {
	route string
	msgs  int64
	bytes int64
}

// Map is the flow accounting sink. The zero value is not usable; use New.
// All methods are nil-receiver safe so a detached sink costs one pointer
// test per hook, and single-goroutine, matching the kernel's event loop.
type Map struct {
	max      int
	flows    []*flow
	index    map[Key]*flow
	over     flow // overflow bucket: exact totals past the table bound
	nodes    int
	matMsgs  []int64 // node×node, row-major [src*nodes+dst]
	matBytes []int64
	res      []*resource
	resIdx   map[string]*resource
	routes   []*routeAgg // sorted by route name
	routeIdx map[string]*routeAgg

	totalMsgs  int64
	totalBytes int64
}

// New builds a flow map; maxFlows <= 0 selects DefaultMaxFlows.
func New(maxFlows int) *Map {
	if maxFlows <= 0 {
		maxFlows = DefaultMaxFlows
	}
	return &Map{
		max:      maxFlows,
		index:    map[Key]*flow{},
		resIdx:   map[string]*resource{},
		routeIdx: map[string]*routeAgg{},
		over:     flow{key: Key{Src: overflowKey, Dst: overflowKey, Route: overflowKey}},
	}
}

// SetNodes sizes the node×node traffic matrix. The runtime calls it when
// the sink is attached; growing later preserves recorded cells.
func (m *Map) SetNodes(n int) {
	if m == nil || n <= m.nodes {
		return
	}
	msgs := make([]int64, n*n)
	bytes := make([]int64, n*n)
	for s := 0; s < m.nodes; s++ {
		copy(msgs[s*n:s*n+m.nodes], m.matMsgs[s*m.nodes:(s+1)*m.nodes])
		copy(bytes[s*n:s*n+m.nodes], m.matBytes[s*m.nodes:(s+1)*m.nodes])
	}
	m.nodes, m.matMsgs, m.matBytes = n, msgs, bytes
}

// Deliver classifies one delivered message into its flow: per-flow
// message/byte/latency accounting plus the per-route aggregates the
// timeline samples. Latency is the reader-observed delivery time.
func (m *Map) Deliver(k Key, bytes int, lat sim.Time) {
	if m == nil {
		return
	}
	f := m.index[k]
	if f == nil {
		if len(m.flows) >= m.max {
			f = &m.over
		} else {
			f = &flow{key: k}
			m.index[k] = f
			m.flows = append(m.flows, f)
		}
	}
	f.msgs++
	f.bytes += int64(bytes)
	f.latSum += lat
	if lat > f.latMax {
		f.latMax = lat
	}
	m.totalMsgs++
	m.totalBytes += int64(bytes)

	ra := m.routeIdx[k.Route]
	if ra == nil {
		ra = &routeAgg{route: k.Route}
		m.routeIdx[k.Route] = ra
		at := sort.Search(len(m.routes), func(i int) bool { return m.routes[i].route >= k.Route })
		m.routes = append(m.routes, nil)
		copy(m.routes[at+1:], m.routes[at:])
		m.routes[at] = ra
	}
	ra.msgs++
	ra.bytes += int64(bytes)
}

// resourceFor returns (creating on first use) a named shared resource.
func (m *Map) resourceFor(name string) *resource {
	r := m.resIdx[name]
	if r == nil {
		r = &resource{name: name, cIdx: map[Key]*contrib{}}
		m.resIdx[name] = r
		m.res = append(m.res, r)
	}
	return r
}

// hopKey folds overflowed flows into the overflow contribution so the
// per-resource breakdown stays bounded alongside the flow table.
func (m *Map) hopKey(k Key) Key {
	if m.index[k] == nil && len(m.flows) >= m.max {
		return m.over.key
	}
	return k
}

// HopBytes attributes payload bytes crossing a hop to the flow's entry in
// that resource's breakdown.
func (m *Map) HopBytes(name string, k Key, bytes int) {
	if m == nil {
		return
	}
	m.resourceFor(name).add(m.hopKey(k), int64(bytes), 0)
}

// HopBusy attributes occupancy (service time a hop spent working this
// flow) to the flow's entry in that resource's breakdown. Co-Pilot hops
// report measured relay/copy span durations; NIC hops report the modeled
// serialization time of each delivered payload.
func (m *Map) HopBusy(name string, k Key, busy sim.Time) {
	if m == nil || busy <= 0 {
		return
	}
	m.resourceFor(name).add(m.hopKey(k), 0, busy)
}

// Node records one MPI envelope delivery into the node×node traffic
// matrix (the internal/mpi hook). Local deliveries fill the diagonal.
func (m *Map) Node(src, dst, bytes int) {
	if m == nil || src < 0 || dst < 0 {
		return
	}
	if src >= m.nodes || dst >= m.nodes {
		n := src + 1
		if dst+1 > n {
			n = dst + 1
		}
		m.SetNodes(n)
	}
	m.matMsgs[src*m.nodes+dst]++
	m.matBytes[src*m.nodes+dst] += int64(bytes)
}

// Wire records one frame put on a named link by the interconnect (the
// internal/interconnect hook) — wire-level truth per NIC, counting
// retransmitted and control frames the payload attribution never sees.
func (m *Map) Wire(link string, bytes int) {
	if m == nil {
		return
	}
	r := m.resourceFor(link)
	r.wireFrames++
	r.wireBytes += int64(bytes)
}

// Flows returns the number of distinct flows in the exact table (the
// overflow bucket excluded).
func (m *Map) Flows() int {
	if m == nil {
		return 0
	}
	return len(m.flows)
}

// Totals returns whole-run message and byte counts across every flow,
// overflow included.
func (m *Map) Totals() (msgs, bytes int64) {
	if m == nil {
		return 0, 0
	}
	return m.totalMsgs, m.totalBytes
}

// Overflowed reports whether the bounded table spilled any flow.
func (m *Map) Overflowed() bool { return m != nil && m.over.msgs > 0 }

// RouteNames returns the routes observed so far, sorted — the
// deterministic iteration order for the timeline's per-route series.
func (m *Map) RouteNames() []string {
	if m == nil {
		return nil
	}
	out := make([]string, len(m.routes))
	for i, ra := range m.routes {
		out[i] = ra.route
	}
	return out
}

// RouteCount returns how many routes RouteNames would list.
func (m *Map) RouteCount() int {
	if m == nil {
		return 0
	}
	return len(m.routes)
}

// RouteBytes returns the cumulative bytes delivered over one route.
func (m *Map) RouteBytes(route string) int64 {
	if m == nil {
		return 0
	}
	if ra := m.routeIdx[route]; ra != nil {
		return ra.bytes
	}
	return 0
}

// sortedFlows returns every table flow ordered for the heavy-hitter
// table: bytes desc, then msgs desc, then key asc — a total order, so the
// rendering is byte-stable.
func (m *Map) sortedFlows() []*flow {
	out := append([]*flow(nil), m.flows...)
	sort.Slice(out, func(i, j int) bool { return flowLess(out[i], out[j]) })
	return out
}

func flowLess(a, b *flow) bool {
	if a.bytes != b.bytes {
		return a.bytes > b.bytes
	}
	if a.msgs != b.msgs {
		return a.msgs > b.msgs
	}
	return keyLess(a.key, b.key)
}

func keyLess(a, b Key) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Route < b.Route
}

// FlowStat is one flow's exported aggregate.
type FlowStat struct {
	Src     string   `json:"src"`
	Dst     string   `json:"dst"`
	Type    int      `json:"type"`
	Route   string   `json:"route"`
	Msgs    int64    `json:"msgs"`
	Bytes   int64    `json:"bytes"`
	LatMean sim.Time `json:"lat_mean_ns"`
	LatMax  sim.Time `json:"lat_max_ns"`
}

func statOf(f *flow) FlowStat {
	st := FlowStat{
		Src: f.key.Src, Dst: f.key.Dst, Type: f.key.Type, Route: f.key.Route,
		Msgs: f.msgs, Bytes: f.bytes, LatMax: f.latMax,
	}
	if f.msgs > 0 {
		st.LatMean = f.latSum / sim.Time(f.msgs)
	}
	return st
}

// Contributor is one flow's share of a shared resource.
type Contributor struct {
	Src   string   `json:"src"`
	Dst   string   `json:"dst"`
	Type  int      `json:"type"`
	Route string   `json:"route"`
	Bytes int64    `json:"bytes"`
	Busy  sim.Time `json:"busy_ns"`
}

// ResourceStat is one shared hop's breakdown: flow-attributed payload
// bytes and occupancy, wire-level truth (NICs only), and the top
// contributing flows by attributed bytes.
type ResourceStat struct {
	Name       string        `json:"name"`
	Bytes      int64         `json:"bytes"`
	Busy       sim.Time      `json:"busy_ns"`
	WireFrames int64         `json:"wire_frames,omitempty"`
	WireBytes  int64         `json:"wire_bytes,omitempty"`
	Top        []Contributor `json:"top"`
}

// RouteStat is one route's aggregate.
type RouteStat struct {
	Route string `json:"route"`
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}

// Report is the exported flow observatory: the traffic matrix, the
// heavy-hitter table, per-route aggregates and per-resource breakdowns.
// Field order is the JSON order, so marshalling is deterministic.
type Report struct {
	Nodes       int            `json:"nodes"`
	MatrixMsgs  [][]int64      `json:"matrix_msgs"`
	MatrixBytes [][]int64      `json:"matrix_bytes"`
	TotalMsgs   int64          `json:"total_msgs"`
	TotalBytes  int64          `json:"total_bytes"`
	FlowCount   int            `json:"flow_count"`
	TopK        []FlowStat     `json:"top_k"`
	Overflow    *FlowStat      `json:"overflow,omitempty"`
	Routes      []RouteStat    `json:"routes"`
	Resources   []ResourceStat `json:"resources"`
	Fingerprint string         `json:"fingerprint"`
}

// DefaultTopK is the heavy-hitter table length Report uses for k <= 0.
const DefaultTopK = 10

// Report derives the exported view. k bounds the heavy-hitter table and
// each resource's contributor list (k <= 0 selects DefaultTopK).
func (m *Map) Report(k int) *Report {
	if m == nil {
		return nil
	}
	if k <= 0 {
		k = DefaultTopK
	}
	rep := &Report{
		Nodes: m.nodes, TotalMsgs: m.totalMsgs, TotalBytes: m.totalBytes,
		FlowCount: len(m.flows), Fingerprint: m.Fingerprint(),
	}
	rep.MatrixMsgs = make([][]int64, m.nodes)
	rep.MatrixBytes = make([][]int64, m.nodes)
	for s := 0; s < m.nodes; s++ {
		rep.MatrixMsgs[s] = append([]int64(nil), m.matMsgs[s*m.nodes:(s+1)*m.nodes]...)
		rep.MatrixBytes[s] = append([]int64(nil), m.matBytes[s*m.nodes:(s+1)*m.nodes]...)
	}
	for i, f := range m.sortedFlows() {
		if i >= k {
			break
		}
		rep.TopK = append(rep.TopK, statOf(f))
	}
	if m.over.msgs > 0 {
		st := statOf(&m.over)
		rep.Overflow = &st
	}
	for _, ra := range m.routes {
		rep.Routes = append(rep.Routes, RouteStat{Route: ra.route, Msgs: ra.msgs, Bytes: ra.bytes})
	}
	names := make([]string, 0, len(m.res))
	for _, r := range m.res {
		names = append(names, r.name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := m.resIdx[name]
		rs := ResourceStat{
			Name: r.name, Bytes: r.bytes, Busy: r.busy,
			WireFrames: r.wireFrames, WireBytes: r.wireBytes,
		}
		cs := append([]*contrib(nil), r.contribs...)
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].bytes != cs[j].bytes {
				return cs[i].bytes > cs[j].bytes
			}
			if cs[i].busy != cs[j].busy {
				return cs[i].busy > cs[j].busy
			}
			return keyLess(cs[i].key, cs[j].key)
		})
		for i, c := range cs {
			if i >= k {
				break
			}
			rs.Top = append(rs.Top, Contributor{
				Src: c.key.Src, Dst: c.key.Dst, Type: c.key.Type, Route: c.key.Route,
				Bytes: c.bytes, Busy: c.busy,
			})
		}
		rep.Resources = append(rep.Resources, rs)
	}
	return rep
}

// MarshalJSON exports the derived Report (with the default top-K).
func (m *Map) MarshalJSON() ([]byte, error) { return json.Marshal(m.Report(0)) }

// canonical renders every recorded fact in a fixed order — the byte
// string the fingerprint binds. Full precision, no truncation: two maps
// fingerprint equal only when every flow, cell, route and contribution
// matches exactly.
func (m *Map) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flowmap flows=%d msgs=%d bytes=%d\n", len(m.flows), m.totalMsgs, m.totalBytes)
	for s := 0; s < m.nodes; s++ {
		for d := 0; d < m.nodes; d++ {
			fmt.Fprintf(&b, "cell %d %d %d %d\n", s, d, m.matMsgs[s*m.nodes+d], m.matBytes[s*m.nodes+d])
		}
	}
	for _, f := range m.sortedFlows() {
		fmt.Fprintf(&b, "flow %s|%s|%d|%s msgs=%d bytes=%d latsum=%d latmax=%d\n",
			f.key.Src, f.key.Dst, f.key.Type, f.key.Route, f.msgs, f.bytes, int64(f.latSum), int64(f.latMax))
	}
	if m.over.msgs > 0 {
		fmt.Fprintf(&b, "overflow msgs=%d bytes=%d latsum=%d latmax=%d\n",
			m.over.msgs, m.over.bytes, int64(m.over.latSum), int64(m.over.latMax))
	}
	for _, ra := range m.routes {
		fmt.Fprintf(&b, "route %s msgs=%d bytes=%d\n", ra.route, ra.msgs, ra.bytes)
	}
	names := make([]string, 0, len(m.res))
	for _, r := range m.res {
		names = append(names, r.name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := m.resIdx[name]
		fmt.Fprintf(&b, "res %s bytes=%d busy=%d wframes=%d wbytes=%d\n",
			r.name, r.bytes, int64(r.busy), r.wireFrames, r.wireBytes)
		cs := append([]*contrib(nil), r.contribs...)
		sort.Slice(cs, func(i, j int) bool { return keyLess(cs[i].key, cs[j].key) })
		for _, c := range cs {
			fmt.Fprintf(&b, "  via %s|%s|%d|%s bytes=%d busy=%d\n",
				c.key.Src, c.key.Dst, c.key.Type, c.key.Route, c.bytes, int64(c.busy))
		}
	}
	return b.String()
}

// Fingerprint is FNV-1a over the canonical rendering: bit-stable across
// runs of the same seed, alone or concurrent with others.
func (m *Map) Fingerprint() string {
	if m == nil {
		return ""
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range []byte(m.canonical()) {
		h ^= uint64(c)
		h *= prime
	}
	return fmt.Sprintf("%016x", h)
}

// FingerprintLines renders the compact multi-line form folded into chaos
// and scenario fingerprints: a header binding everything via the hash,
// then one line per route.
func (m *Map) FingerprintLines() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flowmap flows=%d msgs=%d bytes=%d overflow=%t fp=%s\n",
		len(m.flows), m.totalMsgs, m.totalBytes, m.over.msgs > 0, m.Fingerprint())
	for _, ra := range m.routes {
		fmt.Fprintf(&b, "flowroute %s msgs=%d bytes=%d\n", ra.route, ra.msgs, ra.bytes)
	}
	return b.String()
}

// humanBytes renders a byte count compactly and deterministically.
func humanBytes(v int64) string {
	switch {
	case v >= 10*(1<<20):
		return fmt.Sprintf("%dM", v/(1<<20))
	case v >= 10*(1<<10):
		return fmt.Sprintf("%dK", v/(1<<10))
	default:
		return fmt.Sprintf("%d", v)
	}
}

// heatRamp maps a cell's share of the matrix maximum to an ASCII shade.
var heatRamp = []byte(" .:-=+*#@")

func heatChar(v, max int64) byte {
	if v <= 0 || max <= 0 {
		return heatRamp[0]
	}
	// Log scale: one ramp step per ~x4 of the max, so light flows stay
	// visible next to a dominant one.
	frac := math.Log1p(float64(v)) / math.Log1p(float64(max))
	idx := 1 + int(frac*float64(len(heatRamp)-2)+0.5)
	if idx >= len(heatRamp) {
		idx = len(heatRamp) - 1
	}
	return heatRamp[idx]
}

// RenderMatrix renders the node×node traffic matrix as an aligned
// heatmap table: every cell is "bytes heat-char", shaded on a log scale
// against the busiest cell. Byte-identical across same-seed runs.
func (rep *Report) RenderMatrix() string {
	if rep == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix (%d nodes, bytes src->dst; shade ramp %q per ~x4):\n", rep.Nodes, string(heatRamp))
	if rep.Nodes == 0 {
		b.WriteString("  (no MPI traffic observed)\n")
		return b.String()
	}
	var max int64
	for _, row := range rep.MatrixBytes {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	const w = 9
	fmt.Fprintf(&b, "  %8s", "src\\dst")
	for d := 0; d < rep.Nodes; d++ {
		fmt.Fprintf(&b, " %*s", w, fmt.Sprintf("n%d", d))
	}
	b.WriteByte('\n')
	for s := 0; s < rep.Nodes; s++ {
		fmt.Fprintf(&b, "  %8s", fmt.Sprintf("n%d", s))
		for d := 0; d < rep.Nodes; d++ {
			v := rep.MatrixBytes[s][d]
			cell := "."
			if v > 0 {
				cell = fmt.Sprintf("%s%c", humanBytes(v), heatChar(v, max))
			}
			fmt.Fprintf(&b, " %*s", w, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTopK renders the heavy-hitter flow table.
func (rep *Report) RenderTopK() string {
	if rep == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top flows (%d of %d, by bytes; %d msgs / %s total):\n",
		len(rep.TopK), rep.FlowCount, rep.TotalMsgs, humanBytes(rep.TotalBytes))
	fmt.Fprintf(&b, "  %-4s %-34s %-4s %-30s %8s %10s %12s %12s\n",
		"#", "src -> dst", "type", "route", "msgs", "bytes", "lat mean", "lat max")
	for i, f := range rep.TopK {
		fmt.Fprintf(&b, "  %-4d %-34s %-4d %-30s %8d %10d %12s %12s\n",
			i+1, f.Src+" -> "+f.Dst, f.Type, f.Route, f.Msgs, f.Bytes, f.LatMean, f.LatMax)
	}
	if rep.Overflow != nil {
		fmt.Fprintf(&b, "  %-4s %-34s %-4s %-30s %8d %10d %12s %12s\n",
			"+", overflowKey, "-", "-", rep.Overflow.Msgs, rep.Overflow.Bytes,
			rep.Overflow.LatMean, rep.Overflow.LatMax)
	}
	return b.String()
}

// RenderResources renders the per-link / per-Co-Pilot breakdown with each
// resource's top contributing flows.
func (rep *Report) RenderResources() string {
	if rep == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("resource breakdown (flow-attributed bytes and occupancy):\n")
	for _, r := range rep.Resources {
		fmt.Fprintf(&b, "  %-20s bytes=%-10d busy=%-14s", r.Name, r.Bytes, r.Busy)
		if r.WireFrames > 0 {
			fmt.Fprintf(&b, " wire=%d frames/%d B", r.WireFrames, r.WireBytes)
		}
		b.WriteByte('\n')
		for i, c := range r.Top {
			fmt.Fprintf(&b, "    top%-2d %-34s type%d %-30s bytes=%-10d busy=%s\n",
				i+1, c.Src+" -> "+c.Dst, c.Type, c.Route, c.Bytes, c.Busy)
		}
	}
	return b.String()
}

// String renders the whole observatory: matrix, heavy hitters, routes,
// resources. This is what `cellpilot-trace -flows` prints.
func (rep *Report) String() string {
	if rep == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(rep.RenderMatrix())
	b.WriteString(rep.RenderTopK())
	b.WriteString("routes:\n")
	for _, ra := range rep.Routes {
		fmt.Fprintf(&b, "  %-32s msgs=%-8d bytes=%d\n", ra.Route, ra.Msgs, ra.Bytes)
	}
	b.WriteString(rep.RenderResources())
	fmt.Fprintf(&b, "flow fingerprint: %s\n", rep.Fingerprint)
	return b.String()
}
