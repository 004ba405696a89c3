package telemetry

import (
	"testing"

	"rocc/internal/harness"
)

// TestConcurrentRegistryUnderHarness hammers shared counters,
// histograms, and a recorder from the same worker pool the experiment
// harness uses, then verifies the aggregate totals. Run with -race (CI
// does): the registry's whole contract is that per-flow and per-worker
// components may share metrics without coordination.
func TestConcurrentRegistryUnderHarness(t *testing.T) {
	const cells, perCell = 64, 1000
	reg := New()
	rec := NewRecorder(256)
	c := reg.Counter("hammer.count")
	h := reg.Histogram("hammer.hist")
	ids := make([]int, cells)
	for i := range ids {
		ids[i] = i
	}
	rs := harness.Run(ids, 8, func(cell int) int {
		// Registration races with other cells' registrations and snapshots.
		reg.CounterFunc("hammer.owned", func() uint64 { return 1 })
		for i := 0; i < perCell; i++ {
			c.Inc()
			reg.Counter("hammer.count2").v.Add(2)
			h.Observe(int64(cell*perCell + i))
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
	for _, v := range reg.Snapshot().Counters {
		if v.Name == "hammer.owned" && v.Value != cells {
			t.Errorf("hammer.owned = %v, want one per cell (%d)", v.Value, cells)
		}
	}
	s := h.Snapshot()
	if s.Count != cells*perCell {
		t.Errorf("histogram count = %d, want %d", s.Count, cells*perCell)
	}
	if s.Min != 0 || s.Max != cells*perCell-1 {
		t.Errorf("histogram min/max = %d/%d", s.Min, s.Max)
	}
	if got := len(rec.Events()); got != 256 {
		t.Errorf("recorder retained %d events, want its 256", got)
	}
}
