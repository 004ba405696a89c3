package main

import "rocc/internal/experiments"

// This file is the benchmark's vocabulary: every workload and every
// metric it can print, by name. BENCHMARK.json at the repository root
// lists exactly these (bench_test.go compares the two), so a name is
// added here, there and in README.md's glossary together.

// Workload names.
const (
	wlFCT     = "fct_hadoop"
	wlFCTK2   = "fct_hadoop_k2"
	wlScale   = "scale_k16"
	wlScaleK2 = "scale_k16_k2"
	wlSoak    = "soak_mix"
	wlStar    = "star_protocols"

	// wlProbes and wlCheck are child modes, not workloads: the
	// micro-probes on bare layers and the cross-check against the
	// repository's own runners.
	wlProbes = "probes"
	wlCheck  = "check"
)

// workloadSpec describes one named workload.
type workloadSpec struct {
	Name   string
	Why    string // one line, copied into BENCHMARK.json
	Shards int
	Twin   string // 1-shard workload whose digest this one must equal
	// Lossless workloads must finish with zero tail drops.
	Lossless bool
	// Wrapped workloads run their traced repetition with the protocol
	// timing wrappers interposed (single-threaded engines only).
	Wrapped bool
	run     func(*env) // the assembly in workloads.go
}

var workloads = []workloadSpec{
	{Name: wlFCT, Shards: 1, Lossless: true, Wrapped: true, run: (*env).fct,
		Why: "paper 3x3x30 fat-tree, FB_Hadoop at 70% load under RoCC: flow churn, Poisson arrivals and FCT folding over a shallow event queue"},
	{Name: wlFCTK2, Shards: 2, Twin: wlFCT, Lossless: true, run: (*env).fct,
		Why: "same inputs on 2 shards: few events per 1.5 us window, so window, barrier and mailbox cost is the run"},
	{Name: wlScale, Shards: 1, Lossless: true, Wrapped: true, run: (*env).scale,
		Why: "k=16 fat-tree, 1024 hosts, persistent RoCC flows: deep event queue, large read-only flow table, BFS-heavy set-up"},
	{Name: wlScaleK2, Shards: 2, Twin: wlScale, Lossless: true, run: (*env).scale,
		Why: "same fabric on 2 shards, where windows are full and sharding already pays: guards the case a barrier redesign must not hurt"},
	{Name: wlSoak, Shards: 1, run: (*env).soak,
		Why: "chaos scenarios run back to back: many tiny fabrics built and torn down, all protocols, faults, kills and monitors"},
	{Name: wlStar, Shards: 1, Lossless: true, Wrapped: true, run: (*env).star,
		Why: "one 10-source star per protocol: near-empty event queue and no churn, so time is the per-hop path plus protocol callbacks"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// source says where a metric's value comes from.
type source int

const (
	// srcTimed is a host-time measurement: the median over the untraced
	// repetitions.
	srcTimed source = iota
	// srcExact is a simulated count that repeats bit for bit at a fixed
	// seed; repetitions must agree on it.
	srcExact
	// srcTraced comes from the traced repetition (wrappers and spans on).
	srcTraced
	// srcProbe comes from the micro-probes on bare layers.
	srcProbe
	// srcDerived is computed by the driver from other values.
	srcDerived
)

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
	Src    source
}

// End-to-end metrics, all host-side.
const (
	mWall    = "wall_s"
	mSetup   = "setup_s"
	mPeakMem = "peak_mem_mb"
)

// Bounds were fixed from the two-set evidence in README.md ("Spread"):
// on the 2-CPU sandbox identical code spreads by up to 14% in wall_s
// from one invocation to the next, so 10% cannot hold there.
var endToEnd = []metricSpec{
	{Name: mWall, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mPeakMem, Unit: "MB", Better: "lower", Bound: 0.10},
}

// protocolLayers maps each protocol to the name of its package under
// internal/, which is the layer its callbacks are attributed to.
var protocolLayers = map[experiments.Protocol]string{
	experiments.ProtoRoCC:    "roccnet",
	experiments.ProtoDCQCN:   "dcqcn",
	experiments.ProtoDCQCNPI: "dcqcnpi",
	experiments.ProtoHPCC:    "hpcc",
	experiments.ProtoTIMELY:  "timely",
	experiments.ProtoQCN:     "qcn",
	experiments.ProtoDCTCP:   "dctcp",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lo, hi := "lower", "higher"
	ms := []metricSpec{
		{"sim.events", "count", lo, 0, srcExact},
		{"sim.max_pending", "count", lo, 0, srcExact},
		{"sim.ns_per_event", "ns", lo, 0, srcDerived},
		{"sim.events_per_s", "1/s", hi, 0, srcDerived},
		{"sim.hold_ns_d1e2", "ns", lo, 0, srcProbe},
		{"sim.hold_ns_d1e4", "ns", lo, 0, srcProbe},
		{"sim.hold_ns_d1e6", "ns", lo, 0, srcProbe},
		{"sim.cancel_ns", "ns", lo, 0, srcProbe},
		{"sim.window_ns_k2", "ns", lo, 0, srcProbe},
		{"sim.send_ns_k2", "ns", lo, 0, srcProbe},
		{"sim.lookahead_ns", "ns", hi, 0, srcExact},
		{"sim.events_per_lookahead", "count", hi, 0, srcExact},

		{"netsim.hop_ns", "ns", lo, 0, srcProbe},
		{"netsim.flow_lookup_ns_1e3", "ns", lo, 0, srcProbe},
		{"netsim.flow_lookup_ns_1e5", "ns", lo, 0, srcProbe},
		{"netsim.flow_start_ns", "ns", lo, 0, srcProbe},
		{"netsim.routes_ms_h90", "ms", lo, 0, srcProbe},
		{"netsim.routes_ms_h1024", "ms", lo, 0, srcProbe},
		{"netsim.packets", "count", lo, 0, srcExact},
		{"netsim.packet_slots", "count", lo, 0, srcExact},
		{"netsim.drops", "count", lo, 0, srcExact},
		{"netsim.pfc_frames", "count", lo, 0, srcExact},

		{"topology.build_ms", "ms", lo, 0, srcTimed},
		{"topology.partition_ms", "ms", lo, 0, srcTimed},

		{"workload.arrivals", "count", hi, 0, srcExact},
		{"workload.sample_ns", "ns", lo, 0, srcProbe},

		{"experiments.wire_ms", "ms", lo, 0, srcTimed},
		{"experiments.flow_create_ms", "ms", lo, 0, srcTimed},
		{"experiments.fold_ms", "ms", lo, 0, srcTimed},
	}
	for _, p := range experiments.AllProtocols() {
		l := protocolLayers[p]
		ms = append(ms,
			metricSpec{l + ".ack_ns", "ns", lo, 0, srcTraced},
			metricSpec{l + ".cnp_ns", "ns", lo, 0, srcTraced},
			metricSpec{l + ".allow_ns", "ns", lo, 0, srcTraced},
			metricSpec{l + ".portcc_ns", "ns", lo, 0, srcTraced},
			metricSpec{l + ".cell_wall_s", "s", lo, 0, srcTimed},
		)
	}
	return append(ms,
		metricSpec{"core.cp_update_ns", "ns", lo, 0, srcProbe},
		metricSpec{"core.rp_cnp_ns", "ns", lo, 0, srcProbe},
		metricSpec{"core.queue_err_pct", "%", lo, 0, srcExact},
		metricSpec{"core.jain", "ratio", hi, 0, srcExact},

		metricSpec{"chaos.generate_us", "us", lo, 0, srcTimed},
		metricSpec{"chaos.run_ms_p50", "ms", lo, 0, srcDerived},
		metricSpec{"chaos.run_ms_p99", "ms", lo, 0, srcDerived},
		metricSpec{"chaos.run_ms_star", "ms", lo, 0, srcDerived},
		metricSpec{"chaos.run_ms_multibottleneck", "ms", lo, 0, srcDerived},
		metricSpec{"chaos.run_ms_fattree", "ms", lo, 0, srcDerived},
		metricSpec{"chaos.scenarios_per_min", "1/min", hi, 0, srcTimed},
		metricSpec{"chaos.violations", "count", lo, 0, srcExact},

		metricSpec{"telemetry.overhead_pct", "%", lo, 0, srcProbe},

		metricSpec{"runtime.cpu_s", "s", lo, 0, srcTimed},
		metricSpec{"runtime.alloc_mb", "MB", lo, 0, srcTimed},
		metricSpec{"runtime.mallocs", "count", lo, 0, srcTimed},
		metricSpec{"runtime.gc_cycles", "count", lo, 0, srcTimed},
		metricSpec{"runtime.gc_pause_ms", "ms", lo, 0, srcTimed},

		metricSpec{"trace.overhead_pct", "%", lo, 0, srcDerived},
		metricSpec{"trace.span_overhead_ns", "ns", lo, 0, srcProbe},
		metricSpec{"trace.unattributed_pct", "%", lo, 0, srcTraced},
	)
}
