// Package telemetry is the unified observability layer: a metrics
// registry whose hot-path operations are single atomic instructions and
// allocate nothing, a bounded per-flow flight recorder for dataplane
// events, and exporters (text/CSV snapshots, Chrome trace-event JSON).
//
// Everything is nil-safe: a nil *Registry hands out nil metrics, and
// every metric method on a nil receiver is a no-op. Subsystems therefore
// instrument unconditionally — a disabled registry costs one predicted
// branch per operation (see BenchmarkCounterDisabled), and enabling
// telemetry never changes simulation behaviour, only observes it.
//
// The registry reads, it does not mirror: a count its owner already keeps
// is registered once with CounterFunc (a value with GaugeFunc) and read
// at snapshot time. Counter and Histogram are for what no owner keeps.
//
// Naming scheme: dotted lowercase `<subsystem>.<quantity>[_<unit>]`,
// e.g. "netsim.drops", "netsim.queue_depth_bytes", "rocc.rp.recoveries",
// "rocc.cp.fair_rate_mbps". Units are suffixed (_bytes, _ns, _mbps) so
// snapshots read unambiguously.
//
// The package depends only on the standard library, so any layer of the
// stack (internal/sim upward) may import it without cycles.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil Counter ignores all writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a named collection of metrics. Lookups are get-or-create:
// registering the same name twice returns the same metric, so per-flow
// components share aggregate counters without coordination. Registration
// takes a lock and may allocate; the returned metrics never do.
//
// A nil *Registry is the disabled mode: it hands out nil metrics whose
// operations are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	counts   map[string][]func() uint64
	funcs    map[string]func() float64
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		counts:   make(map[string][]func() uint64),
		funcs:    make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers fn as one source of the named count: a count its
// owner already keeps (a switch's drops, a congestion point's CNPs), read
// at snapshot time instead of mirrored on every increment. Every
// registration of a name adds to the one value the snapshot lists with
// the counters, a Counter of the same name included: parallel cells
// share a registry, and one fabric has many congestion points, policers
// and watchdogs. fn must be safe to call from the snapshotting goroutine.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] = append(r.counts[name], fn)
}

// GaugeFunc registers a gauge evaluated lazily at snapshot time — zero
// hot-path cost for values a subsystem already tracks (engine event
// counts, live CP rates). fn must be safe to call from the
// snapshotting goroutine. Re-registering a name replaces the function
// (the most recently attached subsystem wins).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string
	Value float64
}

// NamedHist is one histogram in a snapshot.
type NamedHist struct {
	Name string
	HistogramSnapshot
}

// Snapshot is a point-in-time copy of every metric, sorted by name
// within each kind. Counter and histogram writers may run concurrently;
// each of their values is read atomically (the snapshot as a whole is
// not a consistent cut, which per-metric monitoring never needs).
// Functions registered with CounterFunc and GaugeFunc read their owner's
// state, so their owner decides when a snapshot is safe: the simulator
// snapshots after its runs.
type Snapshot struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []NamedHist
}

// Snapshot captures all metrics. A nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	totals := make(map[string]uint64, len(r.counters)+len(r.counts))
	for k, c := range r.counters {
		totals[k] += c.Value()
	}
	counts := make(map[string][]func() uint64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var s Snapshot
	for name, fns := range counts {
		for _, fn := range fns {
			totals[name] += fn()
		}
	}
	for name, v := range totals {
		s.Counters = append(s.Counters, NamedValue{name, float64(v)})
	}
	for name, fn := range funcs {
		s.Gauges = append(s.Gauges, NamedValue{name, fn()})
	}
	for name, h := range hists {
		s.Histograms = append(s.Histograms, NamedHist{name, h.Snapshot()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders the snapshot as aligned human-readable text.
func (s Snapshot) WriteText(w io.Writer) error {
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-*s %20.0f\n", width, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-*s %20.6g\n", width, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		_, err := fmt.Fprintf(w, "%-*s count=%d min=%d max=%d mean=%.4g p50=%d p95=%d p99=%d\n",
			width, h.Name, h.Count, h.Min, h.Max, h.Mean, h.P50, h.P95, h.P99)
		if err != nil {
			return err
		}
	}
	return nil
}
