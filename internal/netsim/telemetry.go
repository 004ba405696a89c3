package netsim

import (
	"sync/atomic"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// netMetrics holds the dataplane's resolved telemetry instruments. The
// zero value (all nil) is the disabled state: every method on a nil
// metric is a no-op, so the hot paths below instrument unconditionally.
type netMetrics struct {
	drops         *telemetry.Counter
	pfcPause      *telemetry.Counter
	pfcResume     *telemetry.Counter
	txPackets     *telemetry.Counter
	txBytes       *telemetry.Counter
	ecnMarks      *telemetry.Counter
	linkDownDrops *telemetry.Counter
	pfcStorm      *telemetry.Counter   // completed pauses >= PauseStormSpan
	queueDepth    *telemetry.Histogram // bytes, sampled at data enqueue
	pauseSpans    *telemetry.Histogram // ns per completed PFC pause

	// Topology-failure instruments (topofail.go).
	reconverges       *telemetry.Counter   // route recomputations completed
	blackholeDrops    *telemetry.Counter   // no-route drops in failure windows
	loopDrops         *telemetry.Counter   // hop-cap (TTL) drops
	stalePauseDrops   *telemetry.Counter   // pre-flap PFC frames discarded
	reconvergeLatency *telemetry.Histogram // ns from topology event to recompute

	// Defense instruments (internal/adversary seams).
	policedDrops         *telemetry.Counter // data denied by Police hooks
	watchdogDrops        *telemetry.Counter // data dropped on storm-disabled ports
	watchdogPauseIgnores *telemetry.Counter // PFC frames ignored while lossless off
}

// SetTelemetry attaches a metrics registry and an optional flight
// recorder to the network. Pass nil for either to leave it disabled;
// attaching after the simulation started is allowed (counters simply
// begin at the attach point). Gauges over engine and topology state are
// registered as lazy funcs, so they cost nothing until a snapshot.
func (n *Network) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	n.rec = rec
	n.tm = netMetrics{
		drops:         reg.Counter("netsim.drops"),
		pfcPause:      reg.Counter("netsim.pfc_pause_frames"),
		pfcResume:     reg.Counter("netsim.pfc_resume_frames"),
		txPackets:     reg.Counter("netsim.tx_packets"),
		txBytes:       reg.Counter("netsim.tx_bytes"),
		ecnMarks:      reg.Counter("netsim.ecn_marks"),
		linkDownDrops: reg.Counter("netsim.link_down_drops"),
		pfcStorm:      reg.Counter("netsim.pfc.pause_storm"),
		queueDepth:    reg.Histogram("netsim.queue_depth_bytes"),
		pauseSpans:    reg.Histogram("netsim.pfc_pause_ns"),

		reconverges:       reg.Counter("netsim.route.reconverges"),
		blackholeDrops:    reg.Counter("netsim.route.blackhole_drops"),
		loopDrops:         reg.Counter("netsim.route.loop_drops"),
		stalePauseDrops:   reg.Counter("netsim.pfc.stale_pause_drops"),
		reconvergeLatency: reg.Histogram("netsim.route.reconverge_ns"),

		policedDrops:         reg.Counter("netsim.police.drops"),
		watchdogDrops:        reg.Counter("netsim.watchdog.drops"),
		watchdogPauseIgnores: reg.Counter("netsim.watchdog.pause_ignores"),
	}
	if reg == nil {
		return
	}
	n.reg = reg
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

// TelemetryEvents drains the attached flight recorder's retained events,
// oldest first. Nil-safe: returns nil when no recorder is attached.
func (n *Network) TelemetryEvents() []telemetry.Event { return n.rec.Events() }

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
		n.tm.pfcStorm.Inc()
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
// The event is deliberately not flow-tagged: queue depth is a port
// property, and skipping the per-flow ring keeps this per-packet hook to
// a single ring push. It runs on every data enqueue, so without a
// recorder it returns before building the event at all.
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

// recordDrop files a tail drop as an instant event.
func (n *Network) recordDrop(s *Switch, pkt *Packet) {
	n.tm.drops.Inc()
	n.rec.Record(telemetry.Event{
		At:    int64(s.eng.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   "netsim",
		Name:  "drop",
		Node:  int64(s.id),
		Flow:  int64(pkt.Flow),
		Value: float64(pkt.Size),
	})
}

// recordPolicedDrop files a compliance-policer denial as an instant
// event, flow-tagged so quarantined flows are identifiable in traces.
func (n *Network) recordPolicedDrop(s *Switch, pkt *Packet) {
	n.tm.policedDrops.Inc()
	n.rec.Record(telemetry.Event{
		At:    int64(s.eng.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   "adversary",
		Name:  "policed_drop",
		Node:  int64(s.id),
		Flow:  int64(pkt.Flow),
		Value: float64(pkt.Size),
	})
}

// recordWatchdogDrop files a storm-disabled-port data drop.
func (n *Network) recordWatchdogDrop(s *Switch, pkt *Packet) {
	n.tm.watchdogDrops.Inc()
	n.rec.Record(telemetry.Event{
		At:    int64(s.eng.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   "adversary",
		Name:  "watchdog_drop",
		Node:  int64(s.id),
		Flow:  int64(pkt.Flow),
		Value: float64(pkt.Size),
	})
}
