package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty count/sum = %d/%g", h.Count(), h.Sum())
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty mean/min/max = %g/%g/%g", h.Mean(), h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%g) = %g", q, v)
		}
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.Observe(7)
	if h.Count() != 1 || h.Sum() != 7 || h.Mean() != 7 {
		t.Fatalf("count/sum/mean = %d/%g/%g", h.Count(), h.Sum(), h.Mean())
	}
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
	// Every quantile of a one-sample distribution is that sample.
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 7 {
			t.Fatalf("Quantile(%g) = %g, want 7", q, v)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(5)
	h.Observe(1e9) // beyond the last bound: lands in the +Inf bucket
	counts := h.Counts()
	if len(counts) != 3 {
		t.Fatalf("len(counts) = %d, want bounds+1", len(counts))
	}
	if counts[2] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", counts[2])
	}
	if h.Max() != 1e9 {
		t.Fatalf("max = %g", h.Max())
	}
	// Quantiles drawn from the overflow bucket must stay finite: clamped
	// to the observed max, not +Inf.
	if q := h.Quantile(0.99); math.IsInf(q, 0) || q > h.Max() {
		t.Fatalf("overflow quantile = %g", q)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %g", g.Value())
	}
	g.SetMax(2) // lower: no-op
	if g.Value() != 3 {
		t.Fatalf("SetMax lowered the gauge to %g", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not raise the gauge: %g", g.Value())
	}
	if r.Gauge("depth") != g {
		t.Fatal("gauge not memoized")
	}
}

func TestDumpAndJSONDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, n := range order {
			r.Counter("c/" + n).Inc()
			r.Gauge("g/" + n).Set(1)
			r.Histogram("h/"+n, []float64{1}).Observe(0.5)
		}
		return r
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if a.Dump() != b.Dump() {
		t.Fatalf("Dump depends on insertion order:\n%s\nvs\n%s", a.Dump(), b.Dump())
	}
	ja, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("MarshalJSON depends on insertion order:\n%s\nvs\n%s", ja, jb)
	}
	var omA, omB bytes.Buffer
	if err := a.WriteOpenMetrics(&omA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteOpenMetrics(&omB); err != nil {
		t.Fatal(err)
	}
	if omA.String() != omB.String() {
		t.Fatal("WriteOpenMetrics depends on insertion order")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(2)
	r.Gauge("depth").Set(5)
	r.Histogram("lat", []float64{1, 10}).Observe(3)
	c := r.Clone()

	r.Counter("ops").Inc()
	r.Gauge("depth").Set(9)
	r.Histogram("lat", nil).Observe(4)

	if c.Counter("ops").Value() != 2 {
		t.Fatalf("clone counter = %d", c.Counter("ops").Value())
	}
	if c.Gauge("depth").Value() != 5 {
		t.Fatalf("clone gauge = %g", c.Gauge("depth").Value())
	}
	if c.Histogram("lat", nil).Count() != 1 {
		t.Fatalf("clone histogram count = %d", c.Histogram("lat", nil).Count())
	}
}

func TestWriteOpenMetricsContent(t *testing.T) {
	r := NewRegistry()
	r.Counter("chan/type2/ops").Add(3)
	r.Gauge("link/eib@cell0/utilization").Set(0.25)
	h := r.Histogram("lat_us", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cellpilot_chan_type2_ops counter",
		"cellpilot_chan_type2_ops 3",
		"# TYPE cellpilot_link_eib_cell0_utilization gauge",
		"cellpilot_link_eib_cell0_utilization 0.25",
		"# TYPE cellpilot_lat_us histogram",
		`cellpilot_lat_us_bucket{le="10"} 1`,
		`cellpilot_lat_us_bucket{le="100"} 2`,
		`cellpilot_lat_us_bucket{le="+Inf"} 3`,
		"cellpilot_lat_us_sum 5055",
		"cellpilot_lat_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output lacks %q:\n%s", want, out)
		}
	}
}

func TestPublisherEndpoint(t *testing.T) {
	pub := NewPublisher()
	srv := httptest.NewServer(pub.Handler())
	defer srv.Close()

	// Scrapeable before the first Publish: empty but well-formed.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	resp.Body.Close()

	r := NewRegistry()
	r.Counter("scrapes").Add(7)
	pub.Publish(r)
	r.Counter("scrapes").Add(100) // post-publish mutation must not leak

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cellpilot_scrapes 7") {
		t.Fatalf("served snapshot:\n%s", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	if !strings.Contains(string(body), `"scrapes":7`) {
		t.Fatalf("json snapshot:\n%s", body)
	}

	// Publish(nil) keeps the previous snapshot instead of clearing it.
	pub.Publish(nil)
	if pub.Snapshot().Counter("scrapes").Value() != 7 {
		t.Fatal("Publish(nil) replaced the snapshot")
	}
}

// The JSON snapshot must emit keys in sorted order — not merely be
// deterministic — so /metrics.json diffs line up across snapshots.
func TestMarshalJSONKeyOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid/dle"} {
		r.Counter("c/" + n).Inc()
		r.Gauge("g/" + n).Set(2)
		r.Histogram("h/"+n, []float64{1}).Observe(0.5)
	}
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("invalid JSON: %s", data)
	}
	// The three name families appear with their members sorted, in the
	// raw byte stream (encoding/json would hide ordering after decode).
	for _, section := range []string{"c/", "g/", "h/"} {
		want := []string{section + "alpha", section + "mid/dle", section + "zeta"}
		last := -1
		for _, name := range want {
			at := bytes.Index(data, []byte(`"`+name+`"`))
			if at < 0 {
				t.Fatalf("key %q missing from %s", name, data)
			}
			if at < last {
				t.Fatalf("key %q out of sorted order in %s", name, data)
			}
			last = at
		}
	}
	// The top-level sections are ordered too.
	ci := bytes.Index(data, []byte(`"counters"`))
	gi := bytes.Index(data, []byte(`"gauges"`))
	hi := bytes.Index(data, []byte(`"histograms"`))
	if !(ci < gi && gi < hi) {
		t.Fatalf("section order counters=%d gauges=%d histograms=%d", ci, gi, hi)
	}
}

// /timeline.json serves "{}" until a timeline is published, then the
// exact bytes handed to PublishTimeline.
func TestPublisherTimelineEndpoint(t *testing.T) {
	pub := NewPublisher()
	srv := httptest.NewServer(pub.Handler())
	defer srv.Close()

	get := func() string {
		resp, err := srv.Client().Get(srv.URL + "/timeline.json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if got := strings.TrimSpace(get()); got != "{}" {
		t.Fatalf("pre-publish timeline = %q, want {}", got)
	}
	pub.PublishTimeline([]byte(`{"windows":3}`))
	if got := get(); got != `{"windows":3}` {
		t.Fatalf("published timeline = %q", got)
	}
	pub.PublishTimeline(nil)
	if got := strings.TrimSpace(get()); got != "{}" {
		t.Fatalf("reset timeline = %q, want {}", got)
	}
}
