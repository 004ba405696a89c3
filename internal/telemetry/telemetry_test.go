package telemetry

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.count")
	c.Inc()
	c.v.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Error("re-registering a counter did not return the same instance")
	}
	r.GaugeFunc("a.func", func() float64 { return 42 })
	if s := r.Snapshot(); len(s.Gauges) != 1 || s.Gauges[0].Value != 42 {
		t.Errorf("gauges = %+v, want a.func = 42", s.Gauges)
	}
}

// TestCounterFuncSumsRegistrations: every registration of a count adds
// to one snapshot counter, a Counter of the same name included, and the
// owners' counts are read at snapshot time.
func TestCounterFuncSumsRegistrations(t *testing.T) {
	r := New()
	a, b := uint64(1), uint64(2)
	r.CounterFunc("owned", func() uint64 { return a })
	r.CounterFunc("owned", func() uint64 { return b })
	r.Counter("owned").v.Add(4)
	r.CounterFunc("other", func() uint64 { return 10 })
	a, b = 100, 200
	s := r.Snapshot()
	want := []NamedValue{{"other", 10}, {"owned", 304}}
	if len(s.Counters) != len(want) {
		t.Fatalf("counters = %+v, want %+v", s.Counters, want)
	}
	for i := range want {
		if s.Counters[i] != want[i] {
			t.Errorf("counter %d = %+v, want %+v", i, s.Counters[i], want[i])
		}
	}
	if len(s.Gauges) != 0 {
		t.Errorf("counts leaked into gauges: %+v", s.Gauges)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry handed out a real counter")
	}
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	h := r.Histogram("x")
	h.Observe(5)
	if h.Snapshot() != (HistogramSnapshot{}) {
		t.Error("nil histogram recorded")
	}
	r.GaugeFunc("x", func() float64 { return 1 })
	r.CounterFunc("x", func() uint64 { return 1 })
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var rec *Recorder
	rec.Record(Event{})
	if rec.Events() != nil {
		t.Error("nil recorder not inert")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a").v.Add(2)
	r.GaugeFunc("z", func() float64 { return 9 })
	r.GaugeFunc("y", func() float64 { return 8 })
	r.Histogram("h").Observe(100)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if s.Counters[0].Value != 2 {
		t.Errorf("counter a = %v", s.Counters[0].Value)
	}
	if len(s.Gauges) != 2 || s.Gauges[0].Name != "y" || s.Gauges[0].Value != 8 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	var sb strings.Builder
	if err := s.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a", "b", "y", "z", "h", "count=1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text snapshot missing %q:\n%s", want, sb.String())
		}
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := New()
	v := 1.0
	r.GaugeFunc("live", func() float64 { return v })
	v = 7
	s := r.Snapshot()
	if s.Gauges[0].Value != 7 {
		t.Errorf("gauge func = %v, want 7 (must evaluate lazily)", s.Gauges[0].Value)
	}
}
