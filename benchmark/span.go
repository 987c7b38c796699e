package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span (of the same request) that caused it.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Spans are recorded
// from the benchmark's own files, around its calls into each layer; the
// program under test is not instrumented.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, req int64, parent string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name, req, parent, int64(start.Sub(l.t0)), int64(end.Sub(l.t0))})
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, req int64, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(name, req, parent, start, end)
	return end.Sub(start)
}

// write stores the spans as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rung summarises the spans of one name: how many, their median duration,
// and their median self time — duration minus the part their child spans
// (same request, Parent == name) cover.
type rung struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	N       int     `json:"n"`
	TotalUS float64 `json:"median_us"`
	SelfUS  float64 `json:"median_self_us"`
}

// rungs reduces the log to one row per span name, in first-seen order.
func (l *spanLog) rungs() []rung {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		req  int64
		name string
	}
	covered := map[key]int64{}
	for _, s := range l.spans {
		if s.Parent != "" {
			covered[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	type acc struct {
		parent      string
		first       int
		total, self []float64
	}
	byName := map[string]*acc{}
	for i, s := range l.spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{parent: s.Parent, first: i}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.total = append(a.total, float64(d)/1e3)
		a.self = append(a.self, float64(max(d-covered[key{s.Req, s.Name}], 0))/1e3)
	}
	out := make([]rung, 0, len(byName))
	for name, a := range byName {
		out = append(out, rung{name, a.parent, len(a.total), median(a.total), median(a.self)})
	}
	sort.Slice(out, func(i, j int) bool { return byName[out[i].Name].first < byName[out[j].Name].first })
	return out
}
