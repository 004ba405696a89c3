package export

import (
	"strings"
	"testing"

	"rocc/internal/stats"
	"rocc/internal/telemetry"
)

func TestSeriesCSV(t *testing.T) {
	a := &stats.Series{Name: "queue"}
	b := &stats.Series{Name: "rate"}
	for i := 0; i < 3; i++ {
		a.Add(float64(i), float64(10*i))
		b.Add(float64(i), float64(i))
	}
	var sb strings.Builder
	if err := Series(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t,queue,rate" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Errorf("rows = %d", len(lines))
	}
	if lines[2] != "1,10,1" {
		t.Errorf("row = %q", lines[2])
	}
}

func TestSeriesCSVMismatch(t *testing.T) {
	a := &stats.Series{Name: "a"}
	a.Add(0, 1)
	b := &stats.Series{Name: "b"}
	var sb strings.Builder
	if err := Series(&sb, a, b); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := Series(&sb); err == nil {
		t.Error("empty call accepted")
	}
}

func TestMetricsCSV(t *testing.T) {
	reg := telemetry.New()
	for range 3 {
		reg.Counter("netsim.drops").Inc()
	}
	reg.GaugeFunc("sim.events_pending", func() float64 { return 42 })
	h := reg.Histogram("netsim.queue_depth_bytes")
	for i := 1; i <= 4; i++ {
		h.Observe(int64(i))
	}
	var sb strings.Builder
	if err := Metrics(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "kind,name,value,count,min,max,mean,p50,p95,p99\n") {
		t.Errorf("header wrong: %q", out)
	}
	for _, want := range []string{
		"counter,netsim.drops,3,",
		"gauge,sim.events_pending,42,",
		"histogram,netsim.queue_depth_bytes,10,4,1,4,2.5,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBinsCSV(t *testing.T) {
	bins := []stats.BinStat{
		{UpperBytes: 1000, Count: 5, AvgMs: 0.5, P90Ms: 0.9, P99Ms: 1.2},
	}
	var sb strings.Builder
	if err := Bins(&sb, "RoCC", bins); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "protocol,bin_bytes,count,avg_ms,p90_ms,p99_ms") {
		t.Error("header missing")
	}
	if !strings.Contains(out, "RoCC,1000,5,0.5,0.9,1.2") {
		t.Errorf("row missing: %q", out)
	}
}
