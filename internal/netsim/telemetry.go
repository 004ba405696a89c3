package netsim

import (
	"sync/atomic"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// netMetrics holds the dataplane's distributions, the one kind of
// instrument no plain count can stand in for. The zero value (all nil)
// is the disabled state: every method on a nil histogram is a no-op, so
// the hot paths below instrument unconditionally.
type netMetrics struct {
	queueDepth        *telemetry.Histogram // bytes, sampled at data enqueue
	pauseSpans        *telemetry.Histogram // ns per completed PFC pause
	reconvergeLatency *telemetry.Histogram // ns from topology event to recompute
}

// SetTelemetry attaches a metrics registry and an optional flight
// recorder to the network. Pass nil for either to leave it disabled.
// The network's counts are registered as readers of the counts it
// already keeps, so they cost nothing until a snapshot and report the
// whole run whenever they are attached; the histograms and the
// recorder begin at the attach point.
func (n *Network) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	n.rec = rec
	n.tm = netMetrics{
		queueDepth:        reg.Histogram("netsim.queue_depth_bytes"),
		pauseSpans:        reg.Histogram("netsim.pfc_pause_ns"),
		reconvergeLatency: reg.Histogram("netsim.route.reconverge_ns"),
	}
	if reg == nil {
		return
	}
	n.reg = reg
	ints := func(total func() int) func() uint64 {
		return func() uint64 { return uint64(total()) }
	}
	ports := func(count func(*Port) uint64) func() uint64 {
		return func() uint64 { return sumPorts(n, count) }
	}
	for name, fn := range map[string]func() uint64{
		"netsim.drops":            ints(n.TotalDrops),
		"netsim.pfc_pause_frames": ints(n.TotalPFCFrames),
		"netsim.pfc_resume_frames": ints(func() int {
			return sumSwitches(n, func(s *Switch) int { return s.ResumeFrames })
		}),
		"netsim.police.drops":           ints(n.PolicedDrops),
		"netsim.watchdog.drops":         ints(n.WatchdogDrops),
		"netsim.route.blackhole_drops":  n.BlackholeDrops,
		"netsim.route.loop_drops":       n.LoopDrops,
		"netsim.link_down_drops":        n.LinkDownDrops,
		"netsim.tx_packets":             ports(func(p *Port) uint64 { return p.TxPackets }),
		"netsim.tx_bytes":               ports(func(p *Port) uint64 { return p.TxBytes }),
		"netsim.ecn_marks":              ports(func(p *Port) uint64 { return p.ECNMarks }),
		"netsim.pfc.pause_storm":        n.PauseStorms,
		"netsim.pfc.stale_pause_drops":  n.StalePauseDrops,
		"netsim.route.reconverges":      n.Reconverges,
		"netsim.watchdog.pause_ignores": n.WatchdogPauseIgnores,
	} {
		reg.CounterFunc(name, fn)
	}
	// The sim.* gauges report fabric-wide truth: they aggregate over
	// every shard engine plus the global lane (the group is consulted at
	// snapshot time, so attach order vs. EnableSharding does not matter).
	reg.GaugeFunc("sim.events_fired", func() float64 { return float64(n.group.Fired()) })
	reg.GaugeFunc("sim.events_pending", func() float64 { return float64(n.group.Pending()) })
	reg.GaugeFunc("sim.events_max_pending", func() float64 { return float64(n.group.MaxPending()) })
	reg.GaugeFunc("netsim.active_flows", func() float64 { return float64(n.ActiveFlowCount()) })
	reg.GaugeFunc("netsim.pfc.longest_pause_span_ns", func() float64 {
		return float64(n.LongestPauseSpan())
	})
	reg.GaugeFunc("netsim.buffer_max_bytes", func() float64 {
		max := 0
		for _, s := range n.switches {
			if s.MaxBufferUsed > max {
				max = s.MaxBufferUsed
			}
		}
		return float64(max)
	})
}

// TelemetryRegistry returns the registry attached with SetTelemetry, or
// nil when telemetry is disabled.
func (n *Network) TelemetryRegistry() *telemetry.Registry { return n.reg }

// Recorder returns the attached flight recorder (nil when disabled).
func (n *Network) Recorder() *telemetry.Recorder { return n.rec }

// recordPauseSpan files one completed PFC pause interval, tracking the
// longest span seen and counting pause storms (spans at or above
// Network.PauseStormSpan).
func (n *Network) recordPauseSpan(p *Port, start, end sim.Time) {
	span := end - start
	// Atomic CAS-max / add: ports on different shards complete pauses
	// concurrently. Reads happen on the global lane between windows.
	for {
		cur := sim.Time(atomic.LoadInt64((*int64)(&n.longestPause)))
		if span <= cur || atomic.CompareAndSwapInt64((*int64)(&n.longestPause), int64(cur), int64(span)) {
			break
		}
	}
	if n.PauseStormSpan > 0 && span >= n.PauseStormSpan {
		atomic.AddUint64(&n.pauseStorms, 1)
	}
	n.tm.pauseSpans.Observe(int64(end - start))
	n.rec.Record(telemetry.Event{
		At:   int64(start),
		Dur:  int64(end - start),
		Kind: telemetry.KindSpan,
		Cat:  "pfc",
		Name: "pause",
		Node: int64(p.owner.ID()),
		Tid:  int64(p.Index),
	})
}

// recordQueueDepth files the data-class backlog after an enqueue, both
// into the histogram and as a counter-track event for the Chrome trace.
// The event is not flow-tagged: queue depth is a port property. It runs
// on every data enqueue, so without a recorder it returns before
// building the event at all.
func (n *Network) recordQueueDepth(p *Port) {
	q := p.queueBytes[ClassData]
	n.tm.queueDepth.Observe(int64(q))
	if n.rec == nil {
		return
	}
	n.rec.Record(telemetry.Event{
		At:    int64(p.eng.Now()),
		Kind:  telemetry.KindCounter,
		Cat:   "netsim",
		Name:  "qdepth_bytes",
		Node:  int64(p.owner.ID()),
		Tid:   int64(p.Index),
		Value: float64(q),
	})
}

// recordDrop files one packet a switch discarded as an instant event,
// flow-tagged so a flow's losses (tail drops, policed and watchdog
// drops, loops, blackholes) are identifiable in traces.
func (n *Network) recordDrop(s *Switch, pkt *Packet, cat, name string) {
	n.rec.Record(telemetry.Event{
		At:    int64(s.eng.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   cat,
		Name:  name,
		Node:  int64(s.id),
		Flow:  int64(pkt.Flow),
		Value: float64(pkt.Size),
	})
}
