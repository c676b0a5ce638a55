package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call: the program itself carries no spans. Spans of one request
// share its id; Parent is the enclosing span's ID (0 for a request's
// root).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Method  string `json:"method"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory; the traced run replays one
// request at a time on one goroutine, so it needs no lock.
type spanRecorder struct {
	t0    time.Time
	spans []Span
	// open is the stack of spans begun and not yet ended.
	open []int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (r *spanRecorder) begin(request int, method, name string) {
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Method: method, Name: name})
	r.open = append(r.open, id)
	r.spans[id-1].StartNS = time.Since(r.t0).Nanoseconds()
}

// end closes the innermost open span.
func (r *spanRecorder) end() {
	now := time.Since(r.t0).Nanoseconds()
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id-1].EndNS = now
}

// span times one call.
func (r *spanRecorder) span(request int, method, name string, f func() error) error {
	r.begin(request, method, name)
	err := f()
	r.end()
	return err
}

// write stores the spans as JSON.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfSeconds sums each span name's self time — its duration minus the
// part its children cover — over the spans of one method. The self
// times of a request's spans add up to its root span, so the shares of
// a stacked bar add up to one.
func SelfSeconds(spans []Span, method string) map[string]float64 {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Method == method && s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		if s.Method == method {
			self[s.Name] += float64(s.EndNS-s.StartNS-children[s.ID]) / 1e9
		}
	}
	return self
}

// rootSeconds lists the root span durations of one method's requests,
// in request order.
func rootSeconds(spans []Span, method string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Method == method && s.Parent == 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}
