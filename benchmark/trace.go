package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// call site. Parent is the index of the span that caused it (-1 for a
// root); spans of one operation share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads call it unconditionally and the untraced pass
// pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// on reports whether reference calls (made only in the traced pass)
// should run.
func (t *tracer) on() bool { return t != nil }

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary aggregates one span name over the whole trace.
type spanSummary struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
	// ChildNS is the summed duration of direct children; for a parent
	// whose children are the layers it calls, ChildNS/TotalNS is the
	// share of its time the trace accounts for.
	ChildNS int64 `json:"child_ns"`
}

func summarize(spans []span) map[string]*spanSummary {
	self := selfTimes(spans)
	out := make(map[string]*spanSummary)
	for i, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.Count++
		sum.TotalNS += s.End - s.Start
		sum.SelfNS += self[i]
		sum.ChildNS += (s.End - s.Start) - self[i]
	}
	return out
}

// traceFileSpans caps the spans written out; the summary always covers
// every span recorded.
const traceFileSpans = 20000

// write stores the summary and the first spans under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	doc := struct {
		Workload string                  `json:"workload"`
		Spans    int                     `json:"spans_recorded"`
		Summary  map[string]*spanSummary `json:"summary"`
		First    []span                  `json:"first_spans"`
	}{workload, len(spans), summarize(spans), spans[:min(len(spans), traceFileSpans)]}
	data, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
