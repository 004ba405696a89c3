package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"rocc/internal/harness"
)

// TestConcurrentRegistryUnderHarness hammers shared counters, gauges,
// histograms, and a recorder from the same worker pool the experiment
// harness uses, then verifies the aggregate totals. Run with -race (CI
// does): the registry's whole contract is that per-flow and per-worker
// components may share metrics without coordination.
func TestConcurrentRegistryUnderHarness(t *testing.T) {
	const cells, perCell = 64, 1000
	reg := New()
	rec := NewRecorder(256, 8, 32)
	c := reg.Counter("hammer.count")
	h := reg.Histogram("hammer.hist")
	ids := make([]int, cells)
	for i := range ids {
		ids[i] = i
	}
	rs := harness.Run(ids, 8, func(cell int) int {
		g := reg.Gauge("hammer.gauge") // get-or-create races with other cells
		for i := 0; i < perCell; i++ {
			c.Inc()
			reg.Counter("hammer.count2").Add(2)
			h.Observe(int64(cell*perCell + i))
			g.Set(float64(i))
			rec.Record(Event{At: int64(i), Flow: int64(cell%8 + 1), Name: "e"})
			if i%100 == 0 {
				_ = reg.Snapshot() // snapshots race with writers by design
				_ = rec.Events()
			}
		}
		return cell
	})
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := c.Value(); got != cells*perCell {
		t.Errorf("counter = %d, want %d", got, cells*perCell)
	}
	if got := reg.Counter("hammer.count2").Value(); got != 2*cells*perCell {
		t.Errorf("counter2 = %d, want %d", got, 2*cells*perCell)
	}
	s := h.Snapshot()
	if s.Count != cells*perCell {
		t.Errorf("histogram count = %d, want %d", s.Count, cells*perCell)
	}
	if s.Min != 0 || s.Max != cells*perCell-1 {
		t.Errorf("histogram min/max = %d/%d", s.Min, s.Max)
	}
	if rec.Total() != cells*perCell {
		t.Errorf("recorder total = %d, want %d", rec.Total(), cells*perCell)
	}
	if len(rec.Flows()) != 8 {
		t.Errorf("per-flow rings = %d, want 8", len(rec.Flows()))
	}
}

func TestDebugServerServesPprofAndMetrics(t *testing.T) {
	reg := New()
	reg.Counter("debug.hits").Add(3)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":      "debug.hits",
		"/debug/pprof/": "profiles",
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}
