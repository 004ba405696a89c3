package experiments

import (
	"math"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

func TestParseProtocol(t *testing.T) {
	for _, p := range MicroProtocols() {
		got, err := ParseProtocol(string(p))
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParseProtocol("TCP"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestFig8QueuePinsAtReference(t *testing.T) {
	r := RunFig8(Fig8Config{N: 10, Gbps: 40, Duration: 15 * sim.Millisecond, Seed: 1})
	if math.Abs(r.SteadyQueKB-150) > 25 {
		t.Errorf("steady queue %.0f KB, want ~150", r.SteadyQueKB)
	}
	if math.Abs(r.SteadyRate-4) > 0.3 {
		t.Errorf("steady fair rate %.2f, want ~4", r.SteadyRate)
	}
	if r.ConvergedAt > 0.008 {
		t.Errorf("convergence %.1f ms, want well under 8", r.ConvergedAt*1e3)
	}
}

func TestFig8At100G(t *testing.T) {
	r := RunFig8(Fig8Config{N: 10, Gbps: 100, Duration: 15 * sim.Millisecond, Seed: 1})
	if math.Abs(r.SteadyQueKB-300) > 50 {
		t.Errorf("100G steady queue %.0f KB, want ~300 (Qref)", r.SteadyQueKB)
	}
	if math.Abs(r.SteadyRate-10) > 0.8 {
		t.Errorf("100G fair rate %.2f, want ~10", r.SteadyRate)
	}
}

func TestFig9LadderTracksFairShare(t *testing.T) {
	// Paper-length phases: the first phase includes the startup
	// transient (MD floor + quantized-gain climb, ~6 ms).
	r := RunFig9(Fig9Config{Phase: 10 * sim.Millisecond, Seed: 1})
	if len(r.PhaseN) < 11 {
		t.Fatalf("phases = %d", len(r.PhaseN))
	}
	// The ladder must be symmetric: 3,6,12,24,48,96|100?,...,3.
	if r.PhaseN[0] != 3 || r.PhaseN[len(r.PhaseN)-1] != 3 {
		t.Errorf("ladder endpoints: %v", r.PhaseN)
	}
	peak := 0
	for _, n := range r.PhaseN {
		if n > peak {
			peak = n
		}
	}
	if peak != 100 {
		t.Errorf("peak N = %d, want 100", peak)
	}
	for i, n := range r.PhaseN {
		ideal := 40.0 / float64(n)
		if offered := 36.0 / float64(n) * float64(n); offered < 40 {
			// At N=3 the offered load (3x36=108G) still saturates 40G.
			_ = offered
		}
		got := r.PhaseRates[i]
		if math.Abs(got-ideal)/ideal > 0.30 {
			t.Errorf("phase %d (N=%d): fair rate %.2f, want ~%.2f", i, n, got, ideal)
		}
	}
}

func TestFig11RoCCIsFairest(t *testing.T) {
	cfg := Fig11Config{Duration: 20 * sim.Millisecond, Seed: 1}
	rocc := RunFig11(ProtoRoCC, cfg)
	timely := RunFig11(ProtoTIMELY, cfg)
	if rocc.FlowRateStd > 0.2 {
		t.Errorf("RoCC per-flow spread %.2f, want tight", rocc.FlowRateStd)
	}
	if timely.FlowRateStd < rocc.FlowRateStd {
		t.Error("TIMELY fairer than RoCC; contradicts Fig 11a")
	}
	if math.Abs(rocc.QueueMeanKB-150) > 25 {
		t.Errorf("RoCC queue %.0f, want ~Qref", rocc.QueueMeanKB)
	}
	if rocc.Utilization < 0.93 {
		t.Errorf("RoCC utilization %.2f, want high", rocc.Utilization)
	}
}

func TestFig11HPCCShallowQueue(t *testing.T) {
	cfg := Fig11Config{Duration: 15 * sim.Millisecond, Seed: 1}
	hpcc := RunFig11(ProtoHPCC, cfg)
	if hpcc.QueueMeanKB > 30 {
		t.Errorf("HPCC queue %.0f KB, want shallow", hpcc.QueueMeanKB)
	}
	if hpcc.Utilization > 0.99 {
		t.Errorf("HPCC utilization %.2f: headroom missing", hpcc.Utilization)
	}
	if hpcc.Utilization < 0.85 {
		t.Errorf("HPCC utilization %.2f too low", hpcc.Utilization)
	}
}

func TestFig12aRoCCHandlesMultipleCPs(t *testing.T) {
	r := RunFig12a(ProtoRoCC, 25*sim.Millisecond, 1)
	if math.Abs(r.D[0]-5) > 1.0 {
		t.Errorf("D0 = %.2f, want ~5", r.D[0])
	}
	if math.Abs(r.D[5]-5) > 1.0 {
		t.Errorf("D5 = %.2f, want ~5", r.D[5])
	}
	for i := 1; i <= 4; i++ {
		if math.Abs(r.D[i]-8.75) > 1.3 {
			t.Errorf("D%d = %.2f, want ~8.75", i, r.D[i])
		}
	}
}

func TestFig12aHPCCPenalizesMultiCPFlow(t *testing.T) {
	r := RunFig12a(ProtoHPCC, 25*sim.Millisecond, 1)
	// The paper: D0 gets ~50% less than its 5 Gb/s fair share.
	if r.D[0] > 3.5 {
		t.Errorf("HPCC D0 = %.2f; expected unfairness toward multi-CP flow", r.D[0])
	}
}

func TestFig12bRoCCFairOnAsymmetric(t *testing.T) {
	r := RunFig12b(ProtoRoCC, 25*sim.Millisecond, 1)
	if math.Abs(r.SlowAvg-r.FastAvg) > 2 {
		t.Errorf("RoCC slow=%.2f fast=%.2f, want equal", r.SlowAvg, r.FastAvg)
	}
	if math.Abs(r.SlowAvg-14.3) > 2.5 {
		t.Errorf("RoCC share %.2f, want ~14.3", r.SlowAvg)
	}
}

func TestFig12bHPCCFavorsFastLinks(t *testing.T) {
	r := RunFig12b(ProtoHPCC, 25*sim.Millisecond, 1)
	if r.FastAvg < r.SlowAvg*1.5 {
		t.Errorf("HPCC slow=%.2f fast=%.2f; expected strong bias to 100G hosts", r.SlowAvg, r.FastAvg)
	}
}

func TestFig13SimTwin(t *testing.T) {
	uni := RunFig13Sim(Fig13Uniform, 40*sim.Millisecond, 1)
	if math.Abs(uni.SteadyQueKB-75) > 20 {
		t.Errorf("uni queue %.0f, want ~75", uni.SteadyQueKB)
	}
	if math.Abs(uni.SteadyRate-3.33) > 0.4 {
		t.Errorf("uni fair rate %.2f, want ~3.33", uni.SteadyRate)
	}
	mix := RunFig13Sim(Fig13Mixed, 40*sim.Millisecond, 1)
	if math.Abs(mix.SteadyRate-6) > 0.6 {
		t.Errorf("mix fair rate %.2f, want ~6 (max-min)", mix.SteadyRate)
	}
}

func smallFCT(p Protocol, wl *workload.CDF, mode BufferMode) FCTConfig {
	return FCTConfig{
		Protocol: p,
		Workload: wl,
		Load:     0.7,
		Mode:     mode,
		FatTree:  topology.ScaledFatTree(4),
		Duration: 10 * sim.Millisecond,
		Seed:     1,
	}
}

func TestFCTRunProducesSamples(t *testing.T) {
	r, net := runFCT(smallFCT(ProtoRoCC, workload.FBHadoop(), Lossless))
	if r.FlowsDone < 500 {
		t.Fatalf("only %d flows completed", r.FlowsDone)
	}
	if d := net.TotalDrops(); d != 0 {
		t.Errorf("drops = %d in lossless mode", d)
	}
	nonEmpty := 0
	for _, b := range r.Bins {
		if b.Count > 0 {
			nonEmpty++
			if b.AvgMs <= 0 || b.P99Ms < b.P90Ms || b.P90Ms < 0 {
				t.Errorf("bin %d stats inconsistent: %+v", b.UpperBytes, b)
			}
		}
	}
	if nonEmpty < 8 {
		t.Errorf("only %d bins populated", nonEmpty)
	}
	if r.RateMean <= 0 || r.RateStd < 0 {
		t.Errorf("rate stats: %v ± %v", r.RateMean, r.RateStd)
	}
}

func TestFCTLargerFlowsSlower(t *testing.T) {
	r := RunFCT(smallFCT(ProtoRoCC, workload.WebSearch(), Lossless))
	var first, last float64
	for _, b := range r.Bins {
		if b.Count > 0 {
			if first == 0 {
				first = b.AvgMs
			}
			last = b.AvgMs
		}
	}
	if last <= first {
		t.Errorf("FCT not increasing with size: first=%v last=%v", first, last)
	}
}

func TestFCTLossyModeRetransmits(t *testing.T) {
	r, net := runFCT(smallFCT(ProtoDCQCN, workload.FBHadoop(), Lossy))
	if net.TotalDrops() == 0 {
		t.Skip("no drops at this scale; lossy path not exercised")
	}
	if r.RetxBytes == 0 {
		t.Error("drops occurred but nothing was retransmitted")
	}
}

func TestFCTUnlimitedModeNoPFC(t *testing.T) {
	r, net := runFCT(smallFCT(ProtoDCQCN, workload.FBHadoop(), Unlimited))
	if r.Core.PFCFrames+r.IngressEdge.PFCFrames+r.EgressEdge.PFCFrames != 0 {
		t.Error("PFC frames in unlimited mode")
	}
	if net.TotalDrops() != 0 {
		t.Error("drops with unlimited buffer")
	}
}

func TestRunFoldShapes(t *testing.T) {
	r := MakeFold(RunFCT(smallFCT(ProtoRoCC, workload.FBHadoop(), Lossless)),
		RunFCT(smallFCT(ProtoRoCC, workload.FBHadoop(), Unlimited)))
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.BufferFold <= 0 {
		t.Error("buffer fold not computed")
	}
}

func TestMergeBins(t *testing.T) {
	a := []stats.BinStat{{UpperBytes: 100, Count: 2, AvgMs: 1, P90Ms: 2, P99Ms: 3}}
	b := []stats.BinStat{{UpperBytes: 100, Count: 4, AvgMs: 3, P90Ms: 4, P99Ms: 5}}
	merged, ci := MergeBins([][]stats.BinStat{a, b})
	if merged[0].Count != 6 || merged[0].AvgMs != 2 {
		t.Errorf("merged = %+v", merged[0])
	}
	if ci[0] <= 0 {
		t.Error("CI not computed")
	}
	if m, c := MergeBins(nil); m != nil || c != nil {
		t.Error("MergeBins(nil) should be nil")
	}
}

func TestStabilityRunners(t *testing.T) {
	if pts := RunFig5(); len(pts) != 100 {
		t.Errorf("fig5 grid = %d points", len(pts))
	}
	rows := RunFig6()
	if len(rows) != 2 || rows[0].MarginDeg < 0 || rows[1].MarginDeg > 0 {
		t.Errorf("fig6 rows = %+v", rows)
	}
	f7 := RunFig7()
	if len(f7) != 6*7 {
		t.Errorf("fig7 rows = %d", len(f7))
	}
	at := RunAutoTune(0.3, 3)
	for _, r := range at {
		if r.MarginDeg < 20 {
			t.Errorf("auto-tuned margin at N=%v: %.1f", r.N, r.MarginDeg)
		}
	}
}

func TestFig19BaselineVerification(t *testing.T) {
	for _, p := range []Protocol{ProtoDCQCN, ProtoHPCC} {
		// The figure's own 20 ms phase: at 8 ms DCQCN's N=4 aggregate sits
		// on the floor below (30.0–33.9 across seeds 1–4) and passes or
		// fails by seed; at 20 ms it reads 38 at every seed.
		r := RunFig19(p, 20*sim.Millisecond, 1)
		if len(r.PhaseN) != 7 {
			t.Fatalf("%s: phases = %d", p, len(r.PhaseN))
		}
		// N=1 phases must reach most of the line rate; N=4 near 10 each.
		first := r.PhaseRates[0][0]
		if first < 30 {
			t.Errorf("%s: single flow at %.1f Gb/s, want near 40", p, first)
		}
		n4 := r.PhaseRates[3]
		sum := 0.0
		for _, v := range n4 {
			sum += v
		}
		if sum < 32 {
			t.Errorf("%s: N=4 aggregate %.1f Gb/s, want near 40", p, sum)
		}
	}
}

func TestSamplerSeries(t *testing.T) {
	engine := sim.New()
	s := NewSampler(engine, sim.Millisecond)
	calls := 0
	series := s.Value("x", func() float64 { calls++; return float64(calls) })
	engine.RunUntil(5 * sim.Millisecond)
	if len(series.Points) != 5 {
		t.Errorf("samples = %d, want 5", len(series.Points))
	}
}

func TestConvergenceTimeSmoothing(t *testing.T) {
	s := &stats.Series{}
	for i := 0; i < 100; i++ {
		v := 10.0
		if i == 50 {
			v = 30 // single-sample excursion must be smoothed away
		}
		s.Add(float64(i), v)
	}
	if got := convergenceTime(s, 10, 0.15); got > 55 {
		t.Errorf("single outlier counted as non-convergence: %v", got)
	}
}

func TestIncastFanInGroupsArrivals(t *testing.T) {
	// Compare in Unlimited mode: in lossless mode PFC caps the peak
	// for both arrival patterns, hiding the difference.
	cfg := smallFCT(ProtoRoCC, workload.WebSearch(), Unlimited)
	cfg.IncastFanIn = 8
	cfg.Duration = 8 * sim.Millisecond
	r, fanNet := runFCT(cfg)
	if r.FlowsDone < 10 {
		t.Fatalf("only %d flows with fan-in", r.FlowsDone)
	}
	// Synchronized fan-in produces deeper peak buffers than smooth
	// Poisson at the same load.
	smooth := smallFCT(ProtoRoCC, workload.WebSearch(), Unlimited)
	smooth.Duration = 8 * sim.Millisecond
	_, smoothNet := runFCT(smooth)
	if fan, s := peakBufferKB(fanNet), peakBufferKB(smoothNet); fan <= s {
		t.Errorf("fan-in peak buffer %.0f <= smooth %.0f", fan, s)
	}
}

func TestIncastFanInClampedToSenders(t *testing.T) {
	cfg := smallFCT(ProtoRoCC, workload.FBHadoop(), Lossless)
	cfg.IncastFanIn = 10_000 // far more than senders: must clamp, not panic
	cfg.Duration = 4 * sim.Millisecond
	r := RunFCT(cfg)
	if r.FlowsDone == 0 {
		t.Fatal("no flows completed")
	}
}

func TestAvgBufferReported(t *testing.T) {
	r, net := runFCT(smallFCT(ProtoRoCC, workload.WebSearch(), Lossless))
	if max := peakBufferKB(net); r.AvgBufferKB < 0 || r.AvgBufferKB > max {
		t.Errorf("avg buffer %.1f inconsistent with max %.1f", r.AvgBufferKB, max)
	}
}

// peakBufferKB is the most shared buffer any switch of net held.
func peakBufferKB(net *netsim.Network) float64 {
	max := 0
	for _, sw := range net.Switches() {
		if sw.MaxBufferUsed > max {
			max = sw.MaxBufferUsed
		}
	}
	return float64(max) / float64(netsim.KB)
}
