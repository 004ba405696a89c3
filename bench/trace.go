package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around the calls into each layer;
// spans inside the simulator are a later change (ROADMAP 5c).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the run's origin
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"` // index into the run's spans, -1 for the root
}

// tracer keeps one run's spans in memory; they are written out when the
// child ends. It is always on — the coarse spans cost two clock reads
// each and give the set-up breakdown even on untraced repetitions — while
// the per-call wrappers and the trace file are for traced runs only.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) since() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.since(), Parent: parent})
}

// end closes the innermost open span and returns its duration in seconds.
func (t *tracer) end() float64 {
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	t.open = t.open[:n]
	s.End = t.since()
	return (s.End - s.Start) / 1e6
}

// in times fn as one span.
func (t *tracer) in(name string, fn func()) float64 {
	t.begin(name)
	fn()
	return t.end()
}

// mark closes the innermost span and opens a sibling: consecutive slices
// of one phase without a gap between them.
func (t *tracer) mark(name string) {
	t.end()
	t.begin(name)
}

// total returns the summed duration, in seconds, of every span with the
// given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum / 1e6
}

// childrenOf returns the summed duration, in seconds, of the direct
// children of the first span with the given name.
func (t *tracer) childrenOf(name string) float64 {
	root := -1
	for i, s := range t.spans {
		if s.Name == name {
			root = i
			break
		}
	}
	sum := 0.0
	for _, s := range t.spans {
		if s.Parent == root && root >= 0 {
			sum += s.End - s.Start
		}
	}
	return sum / 1e6
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). runID is shared by every span of the run.
func (t *tracer) writeChrome(path, runID string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.End - s.Start, Pid: 1, Tid: 1,
			Args: map[string]any{"run": runID, "span": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
