package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Start and end are host nanoseconds since the
// benchmark started. Parent is the id of the enclosing phase span ("build",
// or the run call), 0 for a root. Calls is set on a span that covers a
// loop of identical calls (the fmtmsg microbenchmark).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Calls    int    `json:"calls,omitempty"`
}

// spanLog keeps one traced run's spans in memory. Its methods are no-ops
// on a nil log, so untraced runs pay one nil check per call site. Span ids
// are unique within one log, i.e. per workload.
type spanLog struct {
	epoch    time.Time
	workload string
	spans    []span
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Workload: l.workload,
		StartNs: time.Since(l.epoch).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNs = time.Since(l.epoch).Nanoseconds()
}

// durationsUs returns the durations of the spans with any of the names.
func (l *spanLog) durationsUs(names ...string) []float64 {
	var out []float64
	for _, s := range l.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.EndNs-s.StartNs)/1e3)
				break
			}
		}
	}
	return out
}

// writeSpans writes the logs as JSON lines, one span per line.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
