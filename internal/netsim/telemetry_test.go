package netsim

import (
	"reflect"
	"strings"
	"testing"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

func TestNetworkTelemetryCounters(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	reg := telemetry.New()
	rec := telemetry.NewRecorder(4096)
	net.SetTelemetry(reg, rec)
	f := net.StartFlow(a, b, FlowConfig{Size: 200 * 1000})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow not complete")
	}
	snap := reg.Snapshot()
	counters := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["netsim.tx_packets"] == 0 || counters["netsim.tx_bytes"] == 0 {
		t.Errorf("tx counters empty: %v", counters)
	}
	if counters["netsim.drops"] != 0 {
		t.Errorf("unexpected drops on an unlimited buffer: %v", counters["netsim.drops"])
	}
	var qdepth *telemetry.HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "netsim.queue_depth_bytes" {
			qdepth = &snap.Histograms[i].HistogramSnapshot
		}
	}
	if qdepth == nil || qdepth.Count == 0 {
		t.Fatal("queue depth histogram not populated")
	}
	// Engine gauges are lazy funcs over live state.
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["sim.events_fired"] != float64(net.Group().Fired()) {
		t.Errorf("events_fired gauge = %v, group says %d", gauges["sim.events_fired"], net.Group().Fired())
	}
	if gauges["sim.events_max_pending"] < 1 {
		t.Error("max pending gauge not tracked")
	}
	// The recorder saw per-port queue-depth counter events.
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("recorder captured no events")
	}
	var sb strings.Builder
	if err := telemetry.WriteChromeTrace(&sb, evs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "qdepth_bytes") {
		t.Error("chrome trace missing queue depth track")
	}
}

func TestTelemetryDropsAndPFC(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	reg := telemetry.New()
	net.SetTelemetry(reg, telemetry.NewRecorder(1024))
	// Tiny shared buffer with PFC on: the 40G->10G dumbbell overloads the
	// egress, forcing pauses; a second run with PFC off forces drops.
	sw := net.AddSwitch("s", BufferConfig{TotalBytes: 30 * 1000, PFCEnabled: true, PFCThreshold: 10 * 1000})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, Gbps(40), 1000*sim.Nanosecond)
	net.Connect(sw, b, Gbps(10), 1000*sim.Nanosecond)
	net.ComputeRoutes()
	f := net.StartFlow(a, b, FlowConfig{Size: -1})
	engine.RunUntil(2 * sim.Millisecond)
	f.Stop()
	snap := reg.Snapshot()
	vals := map[string]float64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["netsim.pfc_pause_frames"] == 0 {
		t.Error("no pause frames counted under overload")
	}
	if int(vals["netsim.pfc_pause_frames"]) != net.TotalPFCFrames() {
		t.Errorf("telemetry pause frames %v != switch counters %d",
			vals["netsim.pfc_pause_frames"], net.TotalPFCFrames())
	}
	// Completed pause spans landed in the histogram and the recorder.
	for _, h := range snap.Histograms {
		if h.Name == "netsim.pfc_pause_ns" && h.Count == 0 && vals["netsim.pfc_resume_frames"] > 0 {
			t.Error("resumes counted but no pause spans recorded")
		}
	}
	_ = sw
}

func TestTelemetryDropCounterMatchesSwitch(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	reg := telemetry.New()
	net.SetTelemetry(reg, nil)
	sw := net.AddSwitch("s", BufferConfig{TotalBytes: 5 * 1000}) // no PFC: tail drop
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, Gbps(40), 1000*sim.Nanosecond)
	net.Connect(sw, b, Gbps(10), 1000*sim.Nanosecond)
	net.ComputeRoutes()
	f := net.StartFlow(a, b, FlowConfig{Size: -1})
	engine.RunUntil(2 * sim.Millisecond)
	f.Stop()
	if sw.Drops == 0 {
		t.Fatal("test topology did not produce drops")
	}
	if got := snapshotValue(t, reg.Snapshot().Counters, "netsim.drops"); got != float64(sw.Drops) {
		t.Errorf("telemetry drops = %v, switch says %d", got, sw.Drops)
	}
}

// TestQueueDepthEventPerEnqueue pins the per-packet telemetry hook: with
// a recorder attached every data enqueue files one qdepth_bytes counter
// event carrying the port's backlog, and without one the histogram is
// still fed.
func TestQueueDepthEventPerEnqueue(t *testing.T) {
	engine, net, _, b, sw := pair(Gbps(40))
	engine.RunUntil(7 * sim.Microsecond)
	egress := sw.PortTo(b)
	egress.SetPaused(true) // keep the packets queued
	enqueue := func(size int) {
		pkt := net.AcquirePacket(sw)
		pkt.Dst, pkt.Kind, pkt.Cls, pkt.Size = b.ID(), KindData, ClassData, size
		egress.Enqueue(pkt)
	}

	reg := telemetry.New()
	rec := telemetry.NewRecorder(64)
	net.SetTelemetry(reg, rec)
	enqueue(1000)
	enqueue(1500)
	want := []telemetry.Event{
		{At: int64(7 * sim.Microsecond), Kind: telemetry.KindCounter, Cat: "netsim", Name: "qdepth_bytes",
			Node: int64(sw.ID()), Tid: int64(egress.Index), Value: 1000},
		{At: int64(7 * sim.Microsecond), Kind: telemetry.KindCounter, Cat: "netsim", Name: "qdepth_bytes",
			Node: int64(sw.ID()), Tid: int64(egress.Index), Value: 2500},
	}
	if got := rec.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("recorded events:\n got %+v\nwant %+v", got, want)
	}
	if n := reg.Histogram("netsim.queue_depth_bytes").Snapshot().Count; n != 2 {
		t.Errorf("queue depth histogram has %d samples, want 2", n)
	}

	reg = telemetry.New()
	net.SetTelemetry(reg, nil)
	enqueue(500)
	if n := reg.Histogram("netsim.queue_depth_bytes").Snapshot().Count; n != 1 {
		t.Errorf("without a recorder the histogram has %d samples, want 1", n)
	}
}
