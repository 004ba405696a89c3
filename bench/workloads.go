package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rocc/internal/chaos"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

// This file is the child side of the benchmark: one run of one workload,
// assembled from the layers' public functions and timed from outside.
// A workload is a fixed amount of simulated work; every number reported
// about it is host time, host memory or an exact simulated count.

// sizes fixes how much simulated work each workload does. The run
// length is the benchmark's to set and is the same on every commit.
type sizes struct {
	FCTTree      topology.FatTreeConfig
	FCTDuration  sim.Time
	ScaleTree    topology.FatTreeConfig
	ScaleFlows   int
	ScaleTime    sim.Time
	SoakEvents   float64 // soak_mix runs until this many events have fired
	SoakMax      int     // scenarios generated up front
	StarSources  int
	StarDuration sim.Time

	// ProbeDiv divides the probes' iteration counts.
	ProbeDiv int
}

// fullSizes are the measured sizes. They are the ISSUE's workloads cut
// to about 3 s per run so that one timed invocation holds at least four
// repetitions inside the driver's time cap (README.md, "Sizes").
func fullSizes() sizes {
	return sizes{
		FCTTree:      topology.PaperFatTree(),
		FCTDuration:  10 * sim.Millisecond,
		ScaleTree:    experiments.ScaleFatTree(),
		ScaleFlows:   100_000,
		ScaleTime:    sim.Millisecond,
		SoakEvents:   20e6,
		SoakMax:      200,
		StarSources:  10,
		StarDuration: 60 * sim.Millisecond,
		ProbeDiv:     1,
	}
}

// tinySizes run every code path in well under a second each; the star
// stays long enough for RoCC to settle so its reference checks hold.
func tinySizes() sizes {
	return sizes{
		FCTTree:      topology.ScaledFatTree(4),
		FCTDuration:  sim.Millisecond,
		ScaleTree:    topology.ScaledFatTree(8),
		ScaleFlows:   400,
		ScaleTime:    200 * sim.Microsecond,
		SoakEvents:   300e3,
		SoakMax:      40,
		StarSources:  10,
		StarDuration: 20 * sim.Millisecond,
		ProbeDiv:     200,
	}
}

// cell is one timed unit inside a run: a soak scenario or a protocol's
// star.
type cell struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // soak: topology kind; star: protocol layer
	WallS  float64 `json:"wall_s"`
	Events float64 `json:"events"`
}

// childResult is what one child reports to the driver, as one line of
// JSON on its standard output.
type childResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	// Metrics holds every value the child can name by itself: the three
	// end-to-end metrics and the per-layer metrics that do not need other
	// repetitions.
	Metrics map[string]float64 `json:"metrics"`

	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`

	// Digest fingerprints the simulated outputs; Outputs repeats its main
	// components in readable form. Both depend on the seed only.
	Digest  string             `json:"digest"`
	Outputs map[string]float64 `json:"outputs"`

	Cells []cell `json:"cells,omitempty"`

	// Traced runs: per-layer wrapper statistics, the time inside run
	// cells, and where the trace file went.
	Layers    map[string]*layerStats `json:"layers,omitempty"`
	RunS      float64                `json:"run_s"`
	CellsS    float64                `json:"cells_s"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// childArgs selects one child run.
type childArgs struct {
	Workload string
	Seed     int64
	Traced   bool
	// Tiny selects tinySizes; Plant makes the child report a failed
	// output check, so the failure path itself can be tested.
	Tiny, Plant bool
	// Spawned is when the driver launched the child; set-up time counts
	// from here, so process start is part of it.
	Spawned  time.Time
	TraceOut string // traced runs: Chrome trace path
}

// env is the state of one child run.
type env struct {
	childArgs
	Sizes sizes
	spec  workloadSpec
	tr    *tracer
	res   *childResult
	dig   digest

	runStart time.Time
	mem0     runtime.MemStats
	cpu0     float64

	bins []stats.BinStat // fct: per-bin FCT, for the cross-check
}

// runChild runs one workload once and reports on it. A panic anywhere
// below is a failed operation, not a crashed benchmark.
func runChild(a childArgs) (res childResult) {
	runtime.GOMAXPROCS(benchProcs())
	if a.Spawned.IsZero() {
		a.Spawned = time.Now()
	}
	e := newEnv(a, &res)
	defer func() {
		if r := recover(); r != nil {
			res.fail(fmt.Sprintf("panic: %v", r))
			if res.Ops == 0 {
				res.Ops = 1
			}
		}
	}()
	e.tr.begin("child")
	switch {
	case e.spec.run != nil:
		e.spec.run(e)
		e.finish()
	case a.Workload == wlProbes:
		runProbes(e)
	case a.Workload == wlCheck:
		runCheck(e)
	default:
		res.fail("unknown workload " + a.Workload)
		res.Ops = 1
	}
	return res
}

// newEnv starts a run that reports into res.
func newEnv(a childArgs, res *childResult) *env {
	*res = childResult{
		Workload: a.Workload, Seed: a.Seed, Traced: a.Traced,
		Metrics: map[string]float64{}, Outputs: map[string]float64{},
	}
	e := &env{childArgs: a, Sizes: fullSizes(), tr: newTracer(a.Spawned), res: res, dig: newDigest()}
	if a.Tiny {
		e.Sizes = tinySizes()
	}
	e.spec, _ = findWorkload(a.Workload)
	return e
}

func (r *childResult) fail(msg string) {
	r.Failed++
	r.Failures = append(r.Failures, msg)
}

// benchProcs is the parallelism every child runs at: enough for the
// 2-shard workloads, never more than the machine has.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// --- phases ---

// setup times the set-up phase. setup_s counts from the moment the
// driver launched the child to ready-to-run.
func (e *env) setup(fn func()) {
	e.tr.in("setup", fn)
	e.res.Metrics[mSetup] = time.Since(e.Spawned).Seconds()
	for name, metric := range map[string]string{
		"topology.build":          "topology.build_ms",
		"topology.partition":      "topology.partition_ms",
		"experiments.wire":        "experiments.wire_ms",
		"experiments.flow_create": "experiments.flow_create_ms",
	} {
		e.res.Metrics[metric] = e.tr.total(name) * 1e3
	}
}

// run times the run phase; fold must follow. Runtime counters are read
// outside the timed interval.
func (e *env) run(fn func()) {
	runtime.ReadMemStats(&e.mem0)
	e.cpu0 = cpuSeconds()
	e.runStart = time.Now()
	e.res.RunS = e.tr.in("run", fn)
	e.res.CellsS = e.tr.childrenOf("run")
}

// fold times turning raw simulator state into results and closes the
// measured interval: wall_s runs from the first RunUntil to here.
func (e *env) fold(fn func()) {
	foldS := e.tr.in("fold", fn)
	m := e.res.Metrics
	m[mWall] = time.Since(e.runStart).Seconds()
	m["experiments.fold_ms"] = foldS * 1e3
	m["runtime.cpu_s"] = cpuSeconds() - e.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["runtime.alloc_mb"] = float64(mem.TotalAlloc-e.mem0.TotalAlloc) / 1e6
	m["runtime.mallocs"] = float64(mem.Mallocs - e.mem0.Mallocs)
	m["runtime.gc_cycles"] = float64(mem.NumGC - e.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs-e.mem0.PauseTotalNs) / 1e6
}

// finish closes the run: peak memory, the digest, the planted failure
// and the trace file.
func (e *env) finish() {
	e.tr.end() // child
	e.res.Metrics[mPeakMem] = peakMemMB()
	e.res.Digest = e.dig.String()
	if e.spec.Lossless && e.res.Outputs["drops"] != 0 {
		e.res.fail(fmt.Sprintf("lossless workload dropped %v packets", e.res.Outputs["drops"]))
	}
	if e.Plant {
		e.res.fail("planted output-check failure")
	}
	if e.Traced && e.TraceOut != "" {
		runID := fmt.Sprintf("%s-seed%d", e.Workload, e.Seed)
		if err := e.tr.writeChrome(e.TraceOut, runID); err != nil {
			e.res.fail(err.Error())
		} else {
			e.res.TraceFile = e.TraceOut
		}
	}
}

// layer returns the wrapper statistics for a protocol layer on traced,
// wrapped runs and nil otherwise.
func (e *env) layer(name string) *layerStats {
	if !e.Traced || !e.spec.Wrapped {
		return nil
	}
	if e.res.Layers == nil {
		e.res.Layers = map[string]*layerStats{}
	}
	st := newLayerStats()
	e.res.Layers[name] = st
	return st
}

// network records the exact counts every fabric workload shares and
// feeds them to the digest.
func (e *env) network(net *netsim.Network, g *sim.Group) {
	m, o := e.res.Metrics, e.res.Outputs
	m["sim.events"] += float64(g.Fired())
	if p := float64(g.MaxPending()); p > m["sim.max_pending"] {
		m["sim.max_pending"] = p
	}
	m["netsim.packets"] += float64(net.PacketsAcquired())
	m["netsim.packet_slots"] += float64(net.PacketSlots())
	m["netsim.drops"] += float64(net.TotalDrops())
	m["netsim.pfc_frames"] += float64(net.TotalPFCFrames())
	o["events"] = m["sim.events"]
	o["drops"] = m["netsim.drops"]
	o["pfc_frames"] = m["netsim.pfc_frames"]
	// Same fields, same order as experiments.RunScaleBench's digest, so
	// the cross-check can compare the two directly.
	total := uint64(0)
	for _, h := range net.Hosts() {
		e.dig.u64(h.RxDataBytes)
		total += h.RxDataBytes
	}
	o["total_bytes"] += float64(total)
	e.dig.u64(uint64(net.TotalDrops()))
	e.dig.u64(g.Fired())
}

// lookahead records the conservative window width and how many events an
// average window-width of virtual time holds: the work each barrier
// synchronisation is spread over.
func (e *env) lookahead(g *sim.Group, dur sim.Time) {
	e.res.Metrics["sim.lookahead_ns"] = float64(g.Lookahead())
	e.res.Metrics["sim.events_per_lookahead"] = float64(g.Fired()) * float64(g.Lookahead()) / float64(dur)
}

// fatTree builds, partitions and wires a RoCC fat-tree: the set-up the
// fct and scale workloads share, in the order experiments.RunFCT and
// RunScaleBench do it (shard before any protocol attachment).
func (e *env) fatTree(engine *sim.Engine, cfg topology.FatTreeConfig) (ft *topology.FatTree, g *sim.Group, mix *experiments.Mix, st *layerStats) {
	st = e.layer("roccnet")
	e.tr.in("topology.build", func() { ft = topology.BuildFatTree(engine, e.Seed, cfg) })
	if e.Traced {
		// BuildFatTree computes routes inside; the traced run repeats the
		// call so the trace shows what share of the build it is.
		e.tr.in("netsim.routes", ft.Net.ComputeRoutes)
	}
	e.tr.in("topology.partition", func() {
		g = topology.PartitionFatTree(ft, e.spec.Shards).Apply(ft.Net)
	})
	e.tr.in("experiments.wire", func() {
		mix = experiments.NewMix(ft.Net, 16*sim.Microsecond)
		mix.Activate(experiments.ProtoRoCC)
		mix.EnableAllSwitchPorts()
		mix.AttachReceivers()
		if st != nil {
			wrapFabric(ft.Net, st)
		}
	})
	return ft, g, mix, st
}

// --- fct_hadoop, fct_hadoop_k2 ---

// fct is the fig14/table3 cell: every host behind all edges but the last
// sends Poisson FB_Hadoop flows to random hosts behind the last edge at
// 70% load on the bottleneck tier. It repeats experiments.RunFCT's
// assembly call for call (minus its per-tier queue sampler, ~5 events
// per simulated millisecond), which the cross-check holds it to.
func (e *env) fct() {
	cdf := workload.FBHadoop()
	cfg := e.Sizes.FCTTree
	dur := e.Sizes.FCTDuration
	warmup := (dur / 6).Seconds()
	engine := sim.New()
	var (
		ft   *topology.FatTree
		g    *sim.Group
		mix  *experiments.Mix
		st   *layerStats
		gens []*workload.Poisson
	)
	rec := &stats.FCTRecorder{}

	e.setup(func() {
		ft, g, mix, st = e.fatTree(engine, cfg)
		e.tr.in("experiments.flow_create", func() {
			last := len(ft.Hosts) - 1
			sinks := ft.Hosts[last]
			rand := ft.Net.Rand.Split()
			uplink := float64(ft.CoreRate) * float64(cfg.Cores*cfg.LinksPerPair)
			senders := last * cfg.HostsPerEdge
			lambda := workload.ArrivalRate(cdf, uplink/float64(senders), 0.7)
			wrap := wrapFlow(st)
			for _, hosts := range ft.Hosts[:last] {
				for _, src := range hosts {
					src := src
					gens = append(gens, workload.NewPoisson(engine, rand.Split(), cdf, lambda, func(size int) {
						dst := sinks[rand.Intn(len(sinks))]
						mix.StartWrappedFlow(experiments.ProtoRoCC, src, dst, int64(size), 0, false, wrap)
					}))
				}
			}
		})
		nextMark := sim.Millisecond
		ft.Net.OnFlowDone = func(f *netsim.Flow) {
			if e.Traced && f.FinishTime >= nextMark {
				// Completions replay in finish order at window barriers, so
				// they give run slices per simulated millisecond without a
				// scheduled event that would itself move the barriers.
				e.tr.mark(fmt.Sprintf("slice.%dms", nextMark/sim.Millisecond))
				nextMark += sim.Millisecond
			}
			if f.StartTime.Seconds() >= warmup {
				rec.Record(int(f.Size), f.FCT().Seconds())
			}
		}
	})

	e.run(func() {
		e.tr.begin("slice.0ms")
		engine.RunUntil(dur)
		e.tr.end()
		for _, gen := range gens {
			gen.Stop()
		}
	})

	e.fold(func() {
		e.bins = rec.BinBySize(cdf.Bins())
		mean, std := rec.RateStats()
		e.network(ft.Net, g)
		e.lookahead(g, dur)
		e.dig.u64(uint64(ft.Net.TotalPFCFrames()))
		e.dig.u64(uint64(len(rec.Samples)))
		for _, b := range e.bins {
			e.dig.u64(uint64(b.Count))
			e.dig.f64(b.AvgMs)
			e.dig.f64(b.P90Ms)
			e.dig.f64(b.P99Ms)
		}
		e.dig.f64(mean)
		e.dig.f64(std)
		arrivals := 0
		for _, gen := range gens {
			arrivals += gen.Started
		}
		e.res.Metrics["workload.arrivals"] = float64(arrivals)
		e.res.Outputs["flows_done"] = float64(len(rec.Samples))
		e.res.Outputs["rate_mean_mbps"] = mean
	})
	e.res.Ops = 1
}

// --- scale_k16, scale_k16_k2 ---

// scale is BENCH_10's configuration: the k=16 fat-tree saturated with
// persistent random-pair RoCC flows for a fixed slice of virtual time.
// It repeats experiments.RunScaleBench's assembly call for call.
func (e *env) scale() {
	cfg := e.Sizes.ScaleTree
	dur := e.Sizes.ScaleTime
	engine := sim.New()
	var (
		ft  *topology.FatTree
		g   *sim.Group
		mix *experiments.Mix
		st  *layerStats
	)

	e.setup(func() {
		ft, g, mix, st = e.fatTree(engine, cfg)
		e.tr.in("experiments.flow_create", func() {
			hosts := ft.Net.Hosts()
			rand := ft.Net.Rand.Split()
			wrap := wrapFlow(st)
			for i := 0; i < e.Sizes.ScaleFlows; i++ {
				src := hosts[rand.Intn(len(hosts))]
				dst := hosts[rand.Intn(len(hosts))]
				for dst == src {
					dst = hosts[rand.Intn(len(hosts))]
				}
				mix.StartWrappedFlow(experiments.ProtoRoCC, src, dst, -1, 0, false, wrap)
			}
		})
	})

	e.run(func() {
		e.tr.in("slice.0ms", func() { engine.RunUntil(dur) })
	})

	e.fold(func() {
		e.network(ft.Net, g)
		e.lookahead(g, dur)
		e.res.Outputs["flows"] = float64(ft.Net.ActiveFlowCount())
	})
	e.res.Ops = 1
}

// --- soak_mix ---

// soakGen is the scenario mix: every overlay dimension of the chaos
// generator at one in four.
var soakGen = chaos.GenOptions{MixProb: 0.25, FailProb: 0.25, ModeProb: 0.25, RogueProb: 0.25}

// soak runs the chaos scenario stream that starts at the seed, one
// scenario after another, until a fixed number of simulated events has
// fired; wall_s is the host time up to that point, the scenario that
// crosses the budget counting pro rata. A fixed count of scenarios is
// not a fixed amount of work: scenario cost is heavy-tailed, and 50 of
// them differ by 17% from one seed to the next where 20 M events differ
// by 3% (README.md, "Sizes").
//
// One scenario is one operation. An invariant violation is a finding
// about the simulated fabric — it repeats exactly at a fixed seed, is
// counted in chaos.violations and is part of the digest — not a failed
// operation: about one scenario in 500 trips one (README.md,
// "Operations").
func (e *env) soak() {
	scenarios := make([]chaos.Scenario, e.Sizes.SoakMax)
	e.setup(func() {
		e.tr.in("chaos.generate", func() {
			for i := range scenarios {
				scenarios[i] = chaos.Generate(e.Seed+int64(i), soakGen)
			}
		})
	})
	m := e.res.Metrics
	m["chaos.generate_us"] = e.tr.total("chaos.generate") * 1e6 / float64(len(scenarios))

	// The engine lives inside chaos.Run; a monitor that only looks, after
	// the drain, is the one public window onto its counters.
	var cur *chaos.Runtime
	counters := chaos.CustomMonitor{
		Name:  "bench_counters",
		Final: func(rt *chaos.Runtime) (string, bool) { cur = rt; return "", false },
	}
	var (
		results []chaos.Result
		excess  float64 // host seconds of the last scenario past the budget
		ran     float64 // scenarios run, the last one pro rata
	)
	e.run(func() {
		for _, sc := range scenarios {
			before := m["sim.events"]
			if before >= e.Sizes.SoakEvents {
				break
			}
			e.tr.begin(fmt.Sprintf("scenario.%d", sc.Seed))
			cur = nil
			res, err := func() (res chaos.Result, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return chaos.Run(sc, chaos.RunOptions{Shards: 1, Custom: []chaos.CustomMonitor{counters}})
			}()
			if err != nil {
				e.res.fail(fmt.Sprintf("scenario %d: %v", sc.Seed, err))
			}
			if cur != nil {
				e.network(cur.Net, cur.Net.Group())
			}
			c := cell{Name: strconv.FormatInt(sc.Seed, 10), Kind: sc.Topology.Kind, WallS: e.tr.end(), Events: m["sim.events"] - before}
			e.res.Cells = append(e.res.Cells, c)
			results = append(results, res)
			share := 1.0
			if over := m["sim.events"] - e.Sizes.SoakEvents; over > 0 && c.Events > 0 {
				share = 1 - over/c.Events
			}
			ran += share
			excess = c.WallS * (1 - share)
		}
	})
	if m["sim.events"] < e.Sizes.SoakEvents {
		e.res.fail(fmt.Sprintf("scenario stream ended at %v events, before the budget of %v", m["sim.events"], e.Sizes.SoakEvents))
	}

	e.fold(func() {
		violations, done := 0, 0
		for _, r := range results {
			violations += len(r.Violations)
			done += r.FlowsDone
			data, err := json.Marshal(r)
			if err != nil {
				e.res.fail(fmt.Sprintf("scenario %d: encode result: %v", r.Seed, err))
				continue
			}
			e.dig.bytes(data)
		}
		m["chaos.violations"] = float64(violations)
		e.res.Outputs["violations"] = float64(violations)
		e.res.Outputs["flows_done"] = float64(done)
		e.res.Outputs["scenarios"] = float64(len(results))
	})
	m[mWall] -= excess
	e.res.RunS -= excess
	e.res.CellsS -= excess
	m["chaos.scenarios_per_min"] = ran / m[mWall] * 60
	e.res.Ops = len(results)
}

// --- star_protocols ---

// Reference values for RoCC on the 10-source 40G star, from
// EXPERIMENTS.md §6.1: the queue is pinned at Qref, the link is full and
// the shares are equal.
const (
	starQrefKB    = 150.0
	starQueueTol  = 0.05
	starMinJain   = 0.999
	starMinUtil   = 0.99
	starOfferedOf = 0.9 // each source offers 90% of its link
)

type starCell struct {
	proto  experiments.Protocol
	layer  string
	engine *sim.Engine
	group  *sim.Group
	star   *topology.Star
	flows  []*netsim.Flow
	queue  []float64 // KB, sampled over the second half
}

// star runs the §6.1 star once per protocol. All stars are built in
// set-up, then run one after another; one protocol is one operation.
func (e *env) star() {
	rate := netsim.Gbps(40)
	dur := e.Sizes.StarDuration
	half := dur / 2
	protos := experiments.AllProtocols()
	cells := make([]*starCell, len(protos))

	e.setup(func() {
		for i, proto := range protos {
			c := &starCell{proto: proto, layer: protocolLayers[proto], engine: sim.New()}
			cells[i] = c
			st := e.layer(c.layer)
			var mix *experiments.Mix
			e.tr.in("topology.build", func() {
				c.star = topology.BuildStar(c.engine, e.Seed, e.Sizes.StarSources, rate)
			})
			e.tr.in("topology.partition", func() {
				c.group = topology.PartitionAuto(c.star.Net, 1).Apply(c.star.Net)
			})
			e.tr.in("experiments.wire", func() {
				mix = experiments.NewMix(c.star.Net, 8*sim.Microsecond)
				mix.Activate(proto)
				mix.EnableAllSwitchPorts()
				mix.AttachReceivers()
				if st != nil {
					wrapFabric(c.star.Net, st)
				}
			})
			e.tr.in("experiments.flow_create", func() {
				offered := netsim.Rate(float64(rate) * starOfferedOf)
				for _, src := range c.star.Sources {
					c.flows = append(c.flows, mix.StartWrappedFlow(proto, src, c.star.Dst, -1, offered, false, wrapFlow(st)))
				}
			})
			c.engine.NewTicker(100*sim.Microsecond, func() {
				if c.engine.Now() > half {
					c.queue = append(c.queue, float64(c.star.Bottleneck.DataQueueBytes())/float64(netsim.KB))
				}
			})
		}
	})
	mid := make([][]int64, len(cells))
	midTx := make([]uint64, len(cells))
	e.run(func() {
		for i, c := range cells {
			e.tr.begin("cell." + c.layer)
			c.engine.RunUntil(half)
			for _, f := range c.flows {
				mid[i] = append(mid[i], f.DeliveredBytes())
			}
			midTx[i] = c.star.Bottleneck.TxDataBytes
			c.engine.RunUntil(dur)
			wall := e.tr.end()
			e.res.Cells = append(e.res.Cells, cell{Name: string(c.proto), Kind: c.layer, WallS: wall})
			e.res.Metrics[c.layer+".cell_wall_s"] = wall
		}
	})

	e.fold(func() {
		window := (dur - half).Seconds()
		for i, c := range cells {
			perFlow := make([]float64, len(c.flows))
			for j, f := range c.flows {
				perFlow[j] = float64(f.DeliveredBytes()-mid[i][j]) * 8 / window / 1e9
			}
			jain := stats.JainIndex(perFlow)
			util := float64(c.star.Bottleneck.TxDataBytes-midTx[i]) * 8 / window / float64(rate)
			queueKB := stats.Mean(c.queue)
			e.network(c.star.Net, c.group)
			e.dig.f64(jain)
			e.dig.f64(util)
			e.dig.f64(queueKB)
			if c.proto != experiments.ProtoRoCC {
				continue
			}
			// Only RoCC has an analytic reference here; the other six
			// protocols are unvalidated and carry no error figure.
			qerr := math.Abs(queueKB-starQrefKB) / starQrefKB
			e.res.Metrics["core.jain"] = jain
			e.res.Metrics["core.queue_err_pct"] = qerr * 100
			e.res.Outputs["rocc_jain"] = jain
			e.res.Outputs["rocc_utilisation"] = util
			e.res.Outputs["rocc_queue_kb"] = queueKB
			if jain < starMinJain || util < starMinUtil || qerr > starQueueTol {
				e.res.fail(fmt.Sprintf("RoCC star off its reference: Jain %.5f (>= %v), utilisation %.4f (>= %v), queue %.1f KB (within %v of %v)",
					jain, starMinJain, util, starMinUtil, queueKB, starQueueTol, starQrefKB))
			}
		}
	})
	e.res.Ops = len(cells)
}

// --- digest ---

// digest is an FNV-64a over little-endian words, the construction
// experiments.RunScaleBench uses for its own end-state digest.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

func (d digest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d digest) bytes(b []byte) { d.h.Write(b) }
func (d digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// --- host process ---

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakMemMB is the process's peak resident set: VmHWM where /proc has
// it, otherwise what the Go runtime obtained from the system.
func peakMemMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1e3
				}
			}
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.Sys) / 1e6
}
