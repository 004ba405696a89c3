// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6, App. A), plus ablations of RoCC's design choices.
// Each iteration runs the complete experiment at a laptop-scale
// configuration; the figures' key quantities are attached as custom
// benchmark metrics, and `go run ./cmd/roccsim -dur 100ms <fig>`
// reproduces the paper-scale version. Shapes (who wins, by what factor)
// match the paper; EXPERIMENTS.md records paper-vs-measured values.
package rocc_test

import (
	"testing"

	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/flowtable"
	"rocc/internal/fluid"
	"rocc/internal/netsim"
	"rocc/internal/qos"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

func roccCfg40MDOff() core.CPConfig {
	cfg := core.CPConfig40G()
	cfg.DisableMD = true
	return cfg
}

func roccCfg40AutoTuneOff() core.CPConfig {
	cfg := core.CPConfig40G()
	cfg.DisableAutoTune = true
	return cfg
}

func roccHostRegistry() func(core.CPKey) core.CPConfig {
	return func(core.CPKey) core.CPConfig { return core.CPConfig40G() }
}

// --- §5 stability analysis (Figs. 5, 6, 7a, 7b) ---

func BenchmarkFig5PhaseMarginGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunFig5()
		if i == 0 {
			stable := 0
			for _, p := range pts {
				if p.MarginDeg > 0 {
					stable++
				}
			}
			b.ReportMetric(float64(stable), "stable-cells")
		}
	}
}

func BenchmarkFig6StabilityVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig6()
		if i == 0 {
			b.ReportMetric(rows[0].MarginDeg, "PM(N=2)-deg")
			b.ReportMetric(rows[1].MarginDeg, "PM(N=10)-deg")
		}
	}
}

func BenchmarkFig7aPhaseMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig7()
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].MarginDeg, "PM(last-pair,N=128)-deg")
		}
	}
}

func BenchmarkFig7bLoopBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAutoTune(0.3, 3)
		if i == 0 {
			b.ReportMetric(rows[0].BandwidthHz, "autotuned-bw-hz")
		}
	}
}

// --- §6.1 micro-benchmarks (Figs. 8, 9, 11, 12) ---

func BenchmarkFig8FairnessStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig8(experiments.Fig8Config{
			N: 10, Gbps: 40, Duration: 15 * sim.Millisecond, Seed: int64(i + 1),
		})
		if i == 0 {
			b.ReportMetric(r.SteadyQueKB, "queue-KB")
			b.ReportMetric(r.SteadyRate, "fair-Gbps")
			b.ReportMetric(r.ConvergedAt*1e3, "conv-ms")
		}
	}
}

func BenchmarkFig9Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(experiments.Fig9Config{
			Phase: 5 * sim.Millisecond, Seed: int64(i + 1),
		})
		if i == 0 {
			b.ReportMetric(r.PhaseRates[len(r.PhaseRates)-1], "final-fair-Gbps")
			b.ReportMetric(float64(r.PFCFrames), "pfc-frames")
		}
	}
}

func BenchmarkFig11Comparison(b *testing.B) {
	for _, p := range experiments.MicroProtocols() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row := experiments.RunFig11(p, experiments.Fig11Config{
					Duration: 20 * sim.Millisecond, Seed: int64(i + 1),
				})
				if i == 0 {
					b.ReportMetric(row.FlowRateStd, "rate-std-Gbps")
					b.ReportMetric(row.QueueMeanKB, "queue-KB")
					b.ReportMetric(row.Utilization, "util")
				}
			}
		})
	}
}

func BenchmarkFig12aMultiBottleneck(b *testing.B) {
	for _, p := range experiments.ComparisonProtocols() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFig12a(p, 25*sim.Millisecond, int64(i+1))
				if i == 0 {
					b.ReportMetric(r.D[0], "D0-Gbps")
					b.ReportMetric(r.D[5], "D5-Gbps")
				}
			}
		})
	}
}

func BenchmarkFig12bAsymmetric(b *testing.B) {
	for _, p := range experiments.ComparisonProtocols() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFig12b(p, 25*sim.Millisecond, int64(i+1))
				if i == 0 {
					b.ReportMetric(r.SlowAvg, "slow-Gbps")
					b.ReportMetric(r.FastAvg, "fast-Gbps")
				}
			}
		})
	}
}

// --- §6.2 testbed twin (Fig. 13; real sockets via cmd/rocclab) ---

func BenchmarkFig13Testbed(b *testing.B) {
	for _, sc := range []experiments.Fig13Scenario{experiments.Fig13Uniform, experiments.Fig13Mixed} {
		b.Run(string(sc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFig13Sim(sc, 40*sim.Millisecond, int64(i+1))
				if i == 0 {
					b.ReportMetric(r.SteadyQueKB, "queue-KB")
					b.ReportMetric(r.SteadyRate, "fair-Gbps")
				}
			}
		})
	}
}

// --- §6.3 large-scale fat-tree (Figs. 14-18, Table 3, Fig. 20) ---

func fctConfig(p experiments.Protocol, wl *workload.CDF, seed int64) experiments.FCTConfig {
	return experiments.FCTConfig{
		Protocol: p,
		Workload: wl,
		Load:     0.7,
		FatTree:  topology.ScaledFatTree(8),
		Duration: 25 * sim.Millisecond,
		Seed:     seed,
	}
}

func benchFCT(b *testing.B, wl *workload.CDF, metric func(experiments.FCTResult) (string, float64)) {
	for _, p := range experiments.ComparisonProtocols() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFCT(fctConfig(p, wl, int64(i+1)))
				if i == 0 {
					name, v := metric(r)
					b.ReportMetric(v, name)
					b.ReportMetric(float64(r.FlowsDone), "flows")
				}
			}
		})
	}
}

// benchFCTReps measures the repetition fan-out of the §6.3 experiments:
// the same 4-rep RoCC run through the harness at a given worker count.
// Comparing the Serial and Parallel4 variants shows the wall-clock win
// the -workers flag buys (EXPERIMENTS.md records the measured speedup).
func benchFCTReps(b *testing.B, workers int) {
	cfg := fctConfig(experiments.ProtoRoCC, workload.WebSearch(), 1)
	for i := 0; i < b.N; i++ {
		rs := experiments.RunFCTReps(cfg, 4, workers)
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		if i == 0 {
			b.ReportMetric(float64(rs[0].Value.FlowsDone), "flows-per-rep")
		}
	}
}

func BenchmarkFig14RepsSerial(b *testing.B)    { benchFCTReps(b, 1) }
func BenchmarkFig14RepsParallel4(b *testing.B) { benchFCTReps(b, 4) }

func lastPopulated(bins []int, r experiments.FCTResult, pick func(i int) float64) float64 {
	for i := len(r.Bins) - 1; i >= 0; i-- {
		if r.Bins[i].Count > 0 {
			return pick(i)
		}
	}
	return 0
}

func BenchmarkFig14AvgFCT(b *testing.B) {
	benchFCT(b, workload.WebSearch(), func(r experiments.FCTResult) (string, float64) {
		return "elephant-avg-ms", lastPopulated(nil, r, func(i int) float64 { return r.Bins[i].AvgMs })
	})
}

func BenchmarkFig15P90FCT(b *testing.B) {
	benchFCT(b, workload.WebSearch(), func(r experiments.FCTResult) (string, float64) {
		return "elephant-p90-ms", lastPopulated(nil, r, func(i int) float64 { return r.Bins[i].P90Ms })
	})
}

func BenchmarkFig16P99FCT(b *testing.B) {
	benchFCT(b, workload.FBHadoop(), func(r experiments.FCTResult) (string, float64) {
		return "tail-p99-ms", lastPopulated(nil, r, func(i int) float64 { return r.Bins[i].P99Ms })
	})
}

func BenchmarkTable3RateAllocation(b *testing.B) {
	benchFCT(b, workload.FBHadoop(), func(r experiments.FCTResult) (string, float64) {
		return "rate-std-Mbps", r.RateStd
	})
}

func BenchmarkFig17aQueueSize(b *testing.B) {
	benchFCT(b, workload.WebSearch(), func(r experiments.FCTResult) (string, float64) {
		return "core-queue-KB", r.Core.AvgQueueKB
	})
}

func BenchmarkFig17bPFC(b *testing.B) {
	benchFCT(b, workload.WebSearch(), func(r experiments.FCTResult) (string, float64) {
		return "pfc-frames", float64(r.Core.PFCFrames + r.IngressEdge.PFCFrames + r.EgressEdge.PFCFrames)
	})
}

func BenchmarkFig18UnlimitedBuffer(b *testing.B) {
	for _, p := range experiments.ComparisonProtocols() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFold(fctConfig(p, workload.FBHadoop(), int64(i+1)), experiments.Unlimited)
				if i == 0 {
					b.ReportMetric(r.BufferFold, "buffer-fold")
				}
			}
		})
	}
}

func BenchmarkFig19Verification(b *testing.B) {
	for _, p := range []experiments.Protocol{experiments.ProtoDCQCN, experiments.ProtoHPCC} {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFig19(p, 10*sim.Millisecond, int64(i+1))
				if i == 0 {
					b.ReportMetric(r.PhaseRates[0][0], "N1-Gbps")
				}
			}
		})
	}
}

func BenchmarkFig20Lossy(b *testing.B) {
	for _, p := range experiments.ComparisonProtocols() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunFold(fctConfig(p, workload.FBHadoop(), int64(i+1)), experiments.Lossy)
				if i == 0 {
					b.ReportMetric(r.RetxShare*100, "retx-pct")
				}
			}
		})
	}
}

// --- Ablations of RoCC's design choices (DESIGN.md §4) ---

// ablationStar runs the N=10 micro-benchmark with customized RoCC options
// and reports stability metrics.
func ablationStar(b *testing.B, cpOpts roccnet.CPOptions, rpOpts roccnet.RPOptions) {
	for i := 0; i < b.N; i++ {
		engine := sim.New()
		star := topology.BuildStar(engine, int64(i+1), 10, netsim.Gbps(40))
		mix := experiments.NewMix(star.Net, 0)
		mix.RoCCOpts = cpOpts
		mix.RoCCRP = rpOpts
		mix.EnablePort(experiments.ProtoRoCC, star.Bottleneck)
		for _, src := range star.Sources {
			mix.StartFlow(experiments.ProtoRoCC, src, star.Dst, -1, netsim.Gbps(36))
		}
		sampler := experiments.NewSampler(engine, 0)
		queue := sampler.Queue("q", star.Bottleneck)
		engine.RunUntil(15 * sim.Millisecond)
		if i == 0 {
			b.ReportMetric(queue.MeanAfter(0.0075), "queue-KB")
			b.ReportMetric(queue.StdDevAfter(0.0075), "queue-std-KB")
			b.ReportMetric(float64(star.Net.TotalPFCFrames()), "pfc-frames")
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablationStar(b, roccnet.CPOptions{}, roccnet.RPOptions{})
}

func BenchmarkAblationMDDisabled(b *testing.B) {
	ablationStar(b, roccnet.CPOptions{Core: roccCfg40MDOff()}, roccnet.RPOptions{})
}

func BenchmarkAblationAutoTuneDisabled(b *testing.B) {
	ablationStar(b, roccnet.CPOptions{Core: roccCfg40AutoTuneOff()}, roccnet.RPOptions{})
}

func BenchmarkAblationCNPInDataClass(b *testing.B) {
	ablationStar(b, roccnet.CPOptions{CNPClass: netsim.ClassData}, roccnet.RPOptions{})
}

func BenchmarkAblationHostComputed(b *testing.B) {
	ablationStar(b,
		roccnet.CPOptions{HostComputed: true},
		roccnet.RPOptions{HostRegistry: roccHostRegistry()})
}

func BenchmarkAblationFlowTables(b *testing.B) {
	tables := []struct {
		name string
		mk   func(r *sim.Rand) flowtable.Table
	}{
		{"queue", func(*sim.Rand) flowtable.Table { return flowtable.NewQueueTable() }},
		{"bounded", func(*sim.Rand) flowtable.Table { return flowtable.NewBoundedTable(400, 500*sim.Microsecond) }},
		{"afd", func(*sim.Rand) flowtable.Table { return flowtable.NewAFDTable(3000, 64) }},
		{"elephanttrap", func(r *sim.Rand) flowtable.Table { return flowtable.NewElephantTrap(0.25, 64, r) }},
		{"bubblecache", func(r *sim.Rand) flowtable.Table { return flowtable.NewBubbleCache(0.5, 16, 64, 2, r) }},
	}
	for _, tb := range tables {
		tb := tb
		b.Run(tb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := sim.NewRand(int64(i + 1))
				ablationStarOnce(b, i == 0, roccnet.CPOptions{Table: tb.mk(r)})
			}
		})
	}
}

func ablationStarOnce(b *testing.B, report bool, cpOpts roccnet.CPOptions) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 10, netsim.Gbps(40))
	mix := experiments.NewMix(star.Net, 0)
	mix.RoCCOpts = cpOpts
	mix.EnablePort(experiments.ProtoRoCC, star.Bottleneck)
	for _, src := range star.Sources {
		mix.StartFlow(experiments.ProtoRoCC, src, star.Dst, -1, netsim.Gbps(36))
	}
	sampler := experiments.NewSampler(engine, 0)
	queue := sampler.Queue("q", star.Bottleneck)
	tput := sampler.PortThroughput("t", star.Bottleneck)
	engine.RunUntil(15 * sim.Millisecond)
	if report {
		b.ReportMetric(queue.MeanAfter(0.0075), "queue-KB")
		b.ReportMetric(tput.MeanAfter(0.0075), "tput-Gbps")
	}
}

func BenchmarkAblationUpdateInterval(b *testing.B) {
	for _, t := range []sim.Time{20 * sim.Microsecond, 40 * sim.Microsecond, 80 * sim.Microsecond, 160 * sim.Microsecond} {
		t := t
		b.Run(t.String(), func(b *testing.B) {
			ablationStar(b, roccnet.CPOptions{T: t}, roccnet.RPOptions{RecoveryTimer: 5 * t})
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkEnginePacketEvents(b *testing.B) {
	// Raw simulator throughput: events per second on a saturated link.
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	c := net.AddHost("c")
	net.Connect(a, sw, netsim.Gbps(100), 1500*sim.Nanosecond)
	net.Connect(sw, c, netsim.Gbps(100), 1500*sim.Nanosecond)
	net.ComputeRoutes()
	net.StartFlow(a, c, netsim.FlowConfig{Size: -1})
	// One op is one event: run in 10 µs slices (a few hundred events)
	// until b.N have fired. Engine.Step would time a barrier per
	// timestamp, not the event path.
	g := net.Group()
	b.ResetTimer()
	for end, target := sim.Time(0), g.Fired()+uint64(b.N); g.Fired() < target; {
		end += 10 * sim.Microsecond
		engine.RunUntil(end)
	}
}

// --- extensions beyond the paper ---

// BenchmarkExtensionQoS exercises the §8 future-work extension: two
// traffic classes with 2:1 weights must split the bottleneck 2:1 while
// staying max-min fair within each class.
func BenchmarkExtensionQoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		engine := sim.New()
		star := topology.BuildStar(engine, int64(i+1), 6, netsim.Gbps(40))
		classOf := map[netsim.FlowID]int{}
		qos.Attach(star.Net, star.Switch, star.Bottleneck, qos.Options{
			Weights:  []float64{1, 0.5},
			Classify: func(f netsim.FlowID) int { return classOf[f] },
		})
		var flows []*netsim.Flow
		for j, src := range star.Sources {
			f := star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
				Size: -1, MaxRate: netsim.Gbps(36),
				CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
			})
			classOf[f.ID] = j % 2
			flows = append(flows, f)
		}
		engine.RunUntil(15 * sim.Millisecond)
		if i == 0 {
			var shares [2]float64
			for _, f := range flows {
				shares[classOf[f.ID]] += float64(f.DeliveredBytes()) * 8 / engine.Now().Seconds() / 1e9
			}
			b.ReportMetric(shares[0]/shares[1], "class-ratio")
		}
	}
}

// BenchmarkExtensionFluidModel measures the §5.1 fluid integrator, which
// cross-validates the packet simulator at a fraction of the cost.
func BenchmarkExtensionFluidModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := fluid.Run(fluid.Config{
			CP: core.CPConfig40G(), N: 50, LinkMbps: 40000, T: 40e-6, Steps: 4000,
		})
		if i == 0 {
			b.ReportMetric(r.FinalRate(), "fluid-F-Mbps")
		}
	}
}
