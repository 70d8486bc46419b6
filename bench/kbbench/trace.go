package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer. Spans of one request share its trace
// id; parent is the span of the rung above (0 at the top of the ladder).
type span struct {
	Trace   int    `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the "tracing off" side of trace.overhead_ratio.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed runs f, returns how long it took, and, when tracing, records it
// as a span and returns the span's id for its children.
func (tr *tracer) timed(trace, parent int, name string, f func()) (int, time.Duration) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	if tr == nil {
		return 0, t1.Sub(t0)
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		Trace: trace, Span: id, Parent: parent, Name: name,
		StartNS: t0.Sub(tr.epoch).Nanoseconds(), EndNS: t1.Sub(tr.epoch).Nanoseconds(),
	})
	return id, t1.Sub(t0)
}

// rungs are the spans every replayed request must have, top down; each
// one's parent is the one before it.
var rungs = []string{"serve.socket", "serve.handler", "qcache.query", "core.query"}

// validate checks the shape the ladder promises: every request has each
// rung, and every span's parent is 0 or another span of the same
// request.
func (tr *tracer) validate(requests int) error {
	byID := make(map[int]*span, len(tr.spans))
	for i := range tr.spans {
		byID[tr.spans[i].Span] = &tr.spans[i]
	}
	seen := make([]map[string]int, requests)
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.Span, s.Name)
		}
		if p := byID[s.Parent]; s.Parent != 0 && (p == nil || p.Trace != s.Trace) {
			return fmt.Errorf("span %d (%s) of request %d has no valid parent", s.Span, s.Name, s.Trace)
		}
		if s.Trace < 0 || s.Trace >= requests {
			return fmt.Errorf("span %d (%s) names request %d of %d", s.Span, s.Name, s.Trace, requests)
		}
		if seen[s.Trace] == nil {
			seen[s.Trace] = map[string]int{}
		}
		seen[s.Trace][s.Name] = s.Span
	}
	for req, names := range seen {
		parent := 0
		for _, rung := range rungs {
			id, ok := names[rung]
			if !ok {
				return fmt.Errorf("request %d has no %s span", req, rung)
			}
			if byID[id].Parent != parent {
				return fmt.Errorf("request %d: %s is not a child of the rung above it", req, rung)
			}
			parent = id
		}
	}
	return nil
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
