package telemetry

import "testing"

// The disabled/enabled benchmark pair backs the overhead claim in
// DESIGN.md §7: a nil metric is one predicted branch (sub-nanosecond),
// an enabled counter one uncontended atomic add. The end-to-end number
// on a real scenario is BenchmarkFig8Telemetry* in internal/experiments.

func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter // what every subsystem holds when telemetry is off
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := New().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := New().Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(4096)
	e := Event{At: 1, Kind: KindCounter, Cat: "netsim", Name: "qdepth_bytes", Node: 1, Tid: 2, Flow: 3, Value: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	e := Event{At: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}
