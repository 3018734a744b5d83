package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// run started; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory, plus the values the
// program reports about itself (a solve's attempt times, iteration
// counts), and writes both out when the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string][]float64{}} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// value records one number the program reported.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// durations returns the lengths in seconds of the finished spans called
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// med is the median duration in seconds of the spans called name.
func (t *tracer) med(name string) float64 { return median(t.durations(name)) }

// medValue is the median of the recorded values called name.
func (t *tracer) medValue(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.values[name])
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Values map[string][]float64 `json:"values"`
	}{t.spans, t.values})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median of v (0 for an empty slice); v is not modified.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
