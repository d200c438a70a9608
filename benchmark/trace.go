package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded only by
// the benchmark's own code, around calls into a layer's public functions;
// spans of one request share Req, and Parent names the span that caused it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how an untraced run pays nothing for tracing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one finished span and returns its id.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.record(name, parent, req, start, time.Now())
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
