package main

import (
	"fmt"
	"time"

	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

// The probes time one operation of one bare layer each, with nothing
// else running: the numbers a change to that layer should move first.
// Which end-to-end metric each should then move, on which workload, is
// README.md's interaction table.

// perOp runs fn(n) a few times and returns the median cost of one of its
// n operations in nanoseconds.
func perOp(n int, fn func(n int)) float64 {
	const rounds = 5
	ns := make([]float64, rounds)
	for i := range ns {
		start := time.Now()
		fn(n)
		ns[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return stats.Percentile(ns, 50)
}

// runProbes runs every probe once; one probe is one operation.
func runProbes(e *env) {
	div := e.Sizes.ProbeDiv
	n := func(full int) int {
		if full/div < 16 {
			return 16
		}
		return full / div
	}
	m := e.res.Metrics
	probe := func(name string, fn func() float64) {
		e.res.Ops++
		defer func() {
			if r := recover(); r != nil {
				e.res.fail(fmt.Sprintf("%s: panic: %v", name, r))
			}
		}()
		e.tr.begin(name)
		m[name] = fn()
		e.tr.end()
	}

	probe("sim.hold_ns_d1e2", func() float64 { return probeHold(e.Seed, 100, n(500_000)) })
	probe("sim.hold_ns_d1e4", func() float64 { return probeHold(e.Seed, 10_000, n(300_000)) })
	probe("sim.hold_ns_d1e6", func() float64 { return probeHold(e.Seed, n(1_000_000), n(150_000)) })
	probe("sim.cancel_ns", func() float64 { return probeCancel(e.Seed, n(500_000)) })
	windows := n(20_000)
	bare := 0.0
	probe("sim.window_ns_k2", func() float64 {
		bare = probeWindows(windows, 0)
		return bare
	})
	probe("sim.send_ns_k2", func() float64 {
		const sends = 64
		return (probeWindows(windows/2, sends) - bare) / (2 * sends)
	})
	probe("netsim.hop_ns", func() float64 { return probeHop(e.Seed, sim.Time(n(60_000))*sim.Microsecond) })
	probe("netsim.flow_lookup_ns_1e3", func() float64 { return probeLookup(e.Seed, 1_000, n(2_000_000)) })
	probe("netsim.flow_lookup_ns_1e5", func() float64 { return probeLookup(e.Seed, n(100_000), n(2_000_000)) })
	probe("netsim.flow_start_ns", func() float64 { return probeFlowStart(e.Seed, n(20_000)) })
	probe("netsim.routes_ms_h90", func() float64 { return probeRoutes(e.Seed, topology.PaperFatTree()) })
	probe("netsim.routes_ms_h1024", func() float64 { return probeRoutes(e.Seed, e.Sizes.ScaleTree) })
	probe("workload.sample_ns", func() float64 {
		cdf, r := workload.FBHadoop(), sim.NewRand(e.Seed)
		return perOp(n(1_000_000), func(n int) {
			for i := 0; i < n; i++ {
				sink += cdf.Sample(r)
			}
		})
	})
	probe("core.cp_update_ns", func() float64 {
		cp := core.NewCP(core.CPConfig40G())
		return perOp(n(2_000_000), func(n int) {
			for i := 0; i < n; i++ {
				sink += cp.Update(100_000 + i%128*1000)
			}
		})
	})
	probe("core.rp_cnp_ns", func() float64 {
		rp := core.NewRP(core.RPConfig{DeltaFMbps: 10, RmaxMbps: 40_000})
		return perOp(n(2_000_000), func(n int) {
			for i := 0; i < n; i++ {
				if rp.ProcessCNP(100+i%300, core.CPKey{Node: int64(i % 3), Port: 1}) {
					sink++
				}
			}
		})
	})
	probe("telemetry.overhead_pct", func() float64 { return probeTelemetry(e.Seed, sim.Time(n(4_000))*sim.Microsecond) })
	probe("trace.span_overhead_ns", func() float64 { return probeWrapper(n(5_000_000)) })
	e.tr.end() // child
	m[mPeakMem] = peakMemMB()
}

// sink keeps probe loops from being optimised away.
var sink int

// --- sim ---

// holder is the classic hold model: every fired event schedules one new
// event a random distance ahead, so the pending depth never changes.
type holder struct {
	e *sim.Engine
	r *sim.Rand
}

func holdFire(a, _ any) {
	h := a.(*holder)
	h.e.AfterCall(sim.Time(1+h.r.Intn(1000)), holdFire, h, nil)
}

// probeHold is one pop plus one push at a constant pending depth.
func probeHold(seed int64, depth, ops int) float64 {
	h := &holder{e: sim.New(), r: sim.NewRand(seed)}
	for i := 0; i < depth; i++ {
		h.e.AtCall(sim.Time(1+h.r.Intn(1000)), holdFire, h, nil)
	}
	for i := 0; i < depth/4; i++ { // move off the initial time spread
		h.e.Step()
	}
	return perOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			h.e.Step()
		}
	})
}

func nop(_, _ any) {}

// probeCancel is one schedule plus one cancel at pending depth 1e4.
func probeCancel(seed int64, ops int) float64 {
	e, r := sim.New(), sim.NewRand(seed)
	for i := 0; i < 10_000; i++ {
		e.AtCall(sim.Time(1+r.Intn(1000)), nop, nil, nil)
	}
	return perOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			e.AtCall(sim.Time(1+r.Intn(1000)), nop, nil, nil).Cancel()
		}
	})
}

// beater fires once per window on one shard of a bare 2-shard group and
// sends a fixed number of no-op events to the other shard.
type beater struct {
	g         *sim.Group
	e         *sim.Engine
	src, dst  int
	sends     int
	seq       uint64
	lookahead sim.Time
}

func beat(a, _ any) {
	b := a.(*beater)
	at := b.e.Now() + b.lookahead
	for i := 0; i < b.sends; i++ {
		b.seq++
		b.g.Send(b.src, b.dst, at, uint64(b.src)+1, b.seq, 0, nop, nil, nil)
	}
	b.e.AtCall(at, beat, b, nil)
}

// probeWindows is the cost of one window of a bare NewGroup(·, 2, ·) in
// which each shard runs one event (dispatch, barrier, drain) plus sends
// cross-shard events per shard.
func probeWindows(windows, sends int) float64 {
	const lookahead = 1500 * sim.Nanosecond
	return perOp(windows, func(n int) {
		global := sim.New()
		g := sim.NewGroup(global, 2, lookahead)
		for i := 0; i < 2; i++ {
			b := &beater{g: g, e: g.Shard(i), src: i, dst: 1 - i, sends: sends, lookahead: lookahead}
			b.e.AtCall(lookahead/2, beat, b, nil)
		}
		global.RunUntil(sim.Time(n) * lookahead)
	})
}

// --- netsim ---

// probeHop is one packet crossing one link and the node behind it: a
// single unthrottled source through one switch at line rate, so nothing
// queues and no protocol runs.
func probeHop(seed int64, dur sim.Time) float64 {
	engine := sim.New()
	star := topology.BuildStar(engine, seed, 1, netsim.Gbps(40))
	topology.PartitionAuto(star.Net, 1).Apply(star.Net)
	star.Net.StartFlow(star.Sources[0], star.Dst, netsim.FlowConfig{Size: -1})
	start := time.Now()
	engine.RunUntil(dur)
	wall := time.Since(start)
	return float64(wall.Nanoseconds()) / float64(2*star.Net.PacketsAcquired())
}

// probeLookup is one Network.Flow(id) with the given number of flows
// registered.
func probeLookup(seed int64, flows, ops int) float64 {
	star := topology.BuildStar(sim.New(), seed, 16, netsim.Gbps(40))
	for i := 0; i < flows; i++ {
		star.Net.StartFlow(star.Sources[i%16], star.Dst, netsim.FlowConfig{Size: -1})
	}
	r := sim.NewRand(seed)
	return perOp(ops, func(n int) {
		for i := 0; i < n; i++ {
			if star.Net.Flow(netsim.FlowID(1+r.Intn(flows))) != nil {
				sink++
			}
		}
	})
}

// probeFlowStart is the whole life of a one-packet flow: start, its
// packet's two hops, completion, and removal after the grace period.
func probeFlowStart(seed int64, flows int) float64 {
	engine := sim.New()
	star := topology.BuildStar(engine, seed, 8, netsim.Gbps(40))
	topology.PartitionAuto(star.Net, 1).Apply(star.Net)
	start := time.Now()
	for i := 0; i < flows; i++ {
		star.Net.StartFlow(star.Sources[i%8], star.Dst, netsim.FlowConfig{Size: netsim.MTUPayload})
	}
	engine.Run()
	wall := time.Since(start)
	if left := star.Net.ActiveFlowCount(); left != 0 {
		panic("flows left registered after the drain")
	}
	return float64(wall.Nanoseconds()) / float64(flows)
}

// probeRoutes is ComputeRoutes invoked again on a built fat-tree, in ms.
func probeRoutes(seed int64, cfg topology.FatTreeConfig) float64 {
	ft := topology.BuildFatTree(sim.New(), seed, cfg)
	ms := make([]float64, 3)
	for i := range ms {
		start := time.Now()
		ft.Net.ComputeRoutes()
		ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return stats.Percentile(ms, 50)
}

// --- telemetry, trace ---

// probeTelemetry is how much longer experiments.RunFig8 takes with the
// registry and flight recorder attached, in percent.
func probeTelemetry(seed int64, dur sim.Time) float64 {
	run := func(t *experiments.RunTelemetry) float64 {
		start := time.Now()
		experiments.RunFig8(experiments.Fig8Config{N: 10, Gbps: 40, Duration: dur, Seed: seed, Telemetry: t})
		return time.Since(start).Seconds()
	}
	var off, on []float64
	for i := 0; i < 5; i++ {
		off = append(off, run(nil))
		on = append(on, run(experiments.NewRunTelemetry()))
	}
	return (stats.Percentile(on, 50) - stats.Percentile(off, 50)) / stats.Percentile(off, 50) * 100
}

// probeWrapper is what a timing wrapper adds to one forwarded call: the
// counter, the extra interface hop and the amortised share of the clock
// reads on sampled calls.
func probeWrapper(ops int) float64 {
	var direct netsim.FlowCC = netsim.NoCC{}
	var wrapped netsim.FlowCC = &timedFlowCC{inner: direct, st: newLayerStats()}
	call := func(cc netsim.FlowCC) float64 {
		return perOp(ops, func(n int) {
			for i := 0; i < n; i++ {
				cc.OnAck(0, nil)
			}
		})
	}
	return call(wrapped) - call(direct)
}
