package experiments

import (
	"fmt"

	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
)

// Fig8Config parameterizes the fairness/stability micro-benchmark:
// N sources at 90% offered load into one bottleneck (§6.1, Fig. 8).
type Fig8Config struct {
	N        int
	Gbps     float64
	Duration sim.Time
	Seed     int64

	// Protocol selects the scheme under test. Empty means RoCC (the
	// figure's subject); baselines reuse the same topology and load, with
	// the fair-rate series replaced by bottleneck throughput (they expose
	// no explicit fair rate).
	Protocol Protocol

	// Telemetry, when non-nil, attaches a metrics registry and flight
	// recorder to the run (see RunTelemetry). Observation only — seeded
	// results are byte-identical with or without it.
	Telemetry *RunTelemetry
}

// Fig8Result holds the queue and fair-rate series plus steady-state
// summaries for one (N, B) point of Fig. 8.
type Fig8Result struct {
	Config       Fig8Config
	Queue        *stats.Series // KB
	FairRate     *stats.Series // Gb/s
	ConvergedAt  float64       // seconds until the fair rate stays within 10% of final
	SteadyQueKB  float64
	SteadyRate   float64 // Gb/s
	ExpectedRate float64 // Gb/s: B/N
	PFCFrames    int
}

// RunFig8 reproduces one curve of Fig. 8.
func RunFig8(cfg Fig8Config) Fig8Result {
	if cfg.Duration == 0 {
		cfg.Duration = 20 * sim.Millisecond
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtoRoCC
	}
	engine := sim.New()
	star := topology.BuildStar(engine, cfg.Seed, cfg.N, netsim.Gbps(cfg.Gbps))
	cfg.Telemetry.attach(star.Net)
	mix := NewMix(star.Net, 0)
	mix.Activate(cfg.Protocol)
	mix.EnablePort(cfg.Protocol, star.Bottleneck)
	mix.AttachReceiver(cfg.Protocol, star.Dst)
	offered := netsim.Gbps(cfg.Gbps * 0.9)
	for _, src := range star.Sources {
		mix.StartFlow(cfg.Protocol, src, star.Dst, -1, offered)
	}
	sampler := NewSampler(engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	var rate *stats.Series
	if cfg.Protocol == ProtoRoCC {
		cp := mix.CPs[star.Bottleneck]
		rate = sampler.Value("fair-rate", func() float64 { return cp.FairRateMbps() / 1000 })
	} else {
		rate = sampler.PortThroughput("bottleneck", star.Bottleneck)
	}
	engine.RunUntil(cfg.Duration)

	half := cfg.Duration.Seconds() / 2
	res := Fig8Result{
		Config:       cfg,
		Queue:        queue,
		FairRate:     rate,
		SteadyQueKB:  queue.MeanAfter(half),
		SteadyRate:   rate.MeanAfter(half),
		ExpectedRate: cfg.Gbps / float64(cfg.N),
		PFCFrames:    star.Net.TotalPFCFrames(),
	}
	// A 15% band absorbs the ΔF-quantization limit cycle at large N (all
	// flows receive the same rounded rate, so the aggregate input carries
	// up to ±N·ΔF/2 of quantization noise the PI keeps correcting).
	res.ConvergedAt = convergenceTime(rate, res.SteadyRate, 0.15)
	return res
}

// RunFig8Grid runs one Fig. 8 point per config across workers. Each
// cell owns a private engine, so the results are identical to running
// the configs serially, in the same order.
func RunFig8Grid(cfgs []Fig8Config, workers int) []harness.Result[Fig8Result] {
	return harness.Run(len(cfgs), harness.Options{Workers: workers}, func(i int) (Fig8Result, error) {
		return RunFig8(cfgs[i]), nil
	})
}

// convergenceTime returns the earliest time after which the series'
// 5-sample moving average stays within tol (fractional) of target.
// Smoothing keeps isolated quantization-cycle excursions from counting
// as non-convergence.
func convergenceTime(s *stats.Series, target, tol float64) float64 {
	if target == 0 || len(s.Points) == 0 {
		return 0
	}
	conv := 0.0
	var window [5]float64
	for i, p := range s.Points {
		window[i%5] = p.V
		n := i + 1
		if n > 5 {
			n = 5
		}
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += window[j]
		}
		avg := sum / float64(n)
		if d := avg/target - 1; d > tol || d < -tol {
			conv = p.T
		}
	}
	return conv
}

// Fig9Config parameterizes the convergence ladder (Fig. 9): flows start
// in waves so N doubles from Start to Peak, then stop so it halves back.
type Fig9Config struct {
	Gbps     float64
	Start    int      // initial flow count (3 in the paper)
	Peak     int      // maximum flow count (100 in the paper; 96 = 3·2⁵ waves plus 4)
	Phase    sim.Time // time between load changes (10 ms in the paper)
	Seed     int64
	Protocol Protocol // defaults to RoCC

	// Telemetry optionally attaches an observability bundle (see
	// RunTelemetry); nil keeps telemetry disabled.
	Telemetry *RunTelemetry
}

// Fig9Result holds the queue/fair-rate series and per-phase steady rates.
type Fig9Result struct {
	Config     Fig9Config
	Queue      *stats.Series // KB
	FairRate   *stats.Series // Gb/s
	PhaseEnds  []float64     // phase boundary times (s)
	PhaseN     []int         // flow count during each phase
	PhaseRates []float64     // mean fair rate over each phase's second half (Gb/s)
	PFCFrames  int
}

// RunFig9 reproduces Fig. 9: exponential load increase then decrease.
func RunFig9(cfg Fig9Config) Fig9Result {
	if cfg.Gbps == 0 {
		cfg.Gbps = 40
	}
	if cfg.Start == 0 {
		cfg.Start = 3
	}
	if cfg.Peak == 0 {
		cfg.Peak = 100
	}
	if cfg.Phase == 0 {
		cfg.Phase = 10 * sim.Millisecond
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtoRoCC
	}
	// Build the ladder of flow counts: double up to Peak, then halve.
	var counts []int
	for n := cfg.Start; n < cfg.Peak; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, cfg.Peak)
	for i := len(counts) - 2; i >= 0; i-- {
		counts = append(counts, counts[i])
	}

	engine := sim.New()
	star := topology.BuildStar(engine, cfg.Seed, cfg.Peak, netsim.Gbps(cfg.Gbps))
	cfg.Telemetry.attach(star.Net)
	mix := NewMix(star.Net, 0)
	mix.Activate(cfg.Protocol)
	mix.EnablePort(cfg.Protocol, star.Bottleneck)
	mix.AttachReceiver(cfg.Protocol, star.Dst)
	offered := netsim.Gbps(cfg.Gbps * 0.9)

	flows := make([]*netsim.Flow, 0, cfg.Peak)
	setCount := func(n int) {
		for len(flows) < n {
			src := star.Sources[len(flows)]
			flows = append(flows, mix.StartFlow(cfg.Protocol, src, star.Dst, -1, offered))
		}
		for len(flows) > n {
			flows[len(flows)-1].Stop()
			flows = flows[:len(flows)-1]
		}
	}
	for i, n := range counts {
		n := n
		at := sim.Time(i) * cfg.Phase
		if at == 0 {
			setCount(n)
			continue
		}
		engine.At(at, func() { setCount(n) })
	}

	sampler := NewSampler(engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	var rate *stats.Series
	if cfg.Protocol == ProtoRoCC {
		cp := mix.CPs[star.Bottleneck]
		rate = sampler.Value("fair-rate", func() float64 { return cp.FairRateMbps() / 1000 })
	} else {
		rate = sampler.PortThroughput("bottleneck", star.Bottleneck)
	}
	total := sim.Time(len(counts)) * cfg.Phase
	engine.RunUntil(total)

	res := Fig9Result{
		Config:    cfg,
		Queue:     queue,
		FairRate:  rate,
		PFCFrames: star.Net.TotalPFCFrames(),
	}
	for i, n := range counts {
		start := sim.Time(i) * cfg.Phase
		mid := (start + cfg.Phase/2).Seconds()
		end := (start + cfg.Phase).Seconds()
		mean := 0.0
		cnt := 0
		for _, p := range rate.Points {
			if p.T >= mid && p.T < end {
				mean += p.V
				cnt++
			}
		}
		if cnt > 0 {
			mean /= float64(cnt)
		}
		res.PhaseEnds = append(res.PhaseEnds, end)
		res.PhaseN = append(res.PhaseN, n)
		res.PhaseRates = append(res.PhaseRates, mean)
	}
	return res
}

// Fig11Config parameterizes the six-way comparison (Fig. 11): N=10
// sources, B=40 Gb/s.
type Fig11Config struct {
	N        int
	Gbps     float64
	Duration sim.Time
	Seed     int64
}

// Fig11Row is one protocol's outcome: per-flow rate statistics
// (fairness), queue behaviour (stability), and link utilization.
type Fig11Row struct {
	Protocol     Protocol
	JainIndex    float64 // Jain's fairness index over per-flow rates
	FlowRateMean float64 // Gb/s, mean of per-flow steady rates
	FlowRateMin  float64
	FlowRateMax  float64
	FlowRateStd  float64
	QueueMeanKB  float64
	QueueStdKB   float64
	Utilization  float64 // bottleneck, fraction of line rate
	Queue        *stats.Series
	Throughput   *stats.Series // aggregate bottleneck Gb/s
}

// RunFig11 reproduces Fig. 11 for one protocol.
func RunFig11(proto Protocol, cfg Fig11Config) Fig11Row {
	if cfg.N == 0 {
		cfg.N = 10
	}
	if cfg.Gbps == 0 {
		cfg.Gbps = 40
	}
	if cfg.Duration == 0 {
		cfg.Duration = 40 * sim.Millisecond
	}
	engine := sim.New()
	star := topology.BuildStar(engine, cfg.Seed, cfg.N, netsim.Gbps(cfg.Gbps))
	mix := NewMix(star.Net, 8*sim.Microsecond)
	mix.Activate(proto)
	mix.EnablePort(proto, star.Bottleneck)
	mix.AttachReceiver(proto, star.Dst)
	offered := netsim.Gbps(cfg.Gbps * 0.9)
	flows := make([]*netsim.Flow, cfg.N)
	for i, src := range star.Sources {
		flows[i] = mix.StartFlow(proto, src, star.Dst, -1, offered)
	}
	sampler := NewSampler(engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	tput := sampler.PortThroughput("bottleneck", star.Bottleneck)

	half := cfg.Duration / 2
	engine.RunUntil(half)
	mid := make([]int64, len(flows))
	for i, f := range flows {
		mid[i] = f.DeliveredBytes()
	}
	engine.RunUntil(cfg.Duration)

	window := (cfg.Duration - half).Seconds()
	perFlow := make([]float64, len(flows))
	for i, f := range flows {
		perFlow[i] = float64(f.DeliveredBytes()-mid[i]) * 8 / window / 1e9
	}
	sum := stats.Summarize(perFlow)
	row := Fig11Row{
		Protocol:     proto,
		JainIndex:    stats.JainIndex(perFlow),
		FlowRateMean: sum.Mean,
		FlowRateMin:  sum.Min,
		FlowRateMax:  sum.Max,
		FlowRateStd:  sum.StdDev,
		QueueMeanKB:  queue.MeanAfter(half.Seconds()),
		QueueStdKB:   queue.StdDevAfter(half.Seconds()),
		Utilization:  tput.MeanAfter(half.Seconds()) / cfg.Gbps,
		Queue:        queue,
		Throughput:   tput,
	}
	return row
}

// RunFig11Grid fans the (protocol × repetition) cells of the six-way
// comparison across workers. Repetition rep of protocol protos[p] uses
// seed cfg.Seed + rep and lands at out[p][rep] regardless of completion
// order, so the grid is deterministic for any worker count.
func RunFig11Grid(protos []Protocol, cfg Fig11Config, reps, workers int) [][]harness.Result[Fig11Row] {
	if reps <= 0 {
		reps = 1
	}
	rs := harness.Run(len(protos)*reps, harness.Options{Workers: workers}, func(cell int) (Fig11Row, error) {
		c := cfg
		c.Seed = harness.Seed(cfg.Seed, cell%reps)
		return RunFig11(protos[cell/reps], c), nil
	})
	out := make([][]harness.Result[Fig11Row], len(protos))
	for p := range protos {
		out[p] = rs[p*reps : (p+1)*reps]
	}
	return out
}

// Fig12aRow is one protocol's per-flow average throughput on the
// multi-bottleneck topology (Fig. 12a). Fair shares: D0 and D5 get
// 5 Gb/s; D1..D4 get 8.75 Gb/s.
type Fig12aRow struct {
	Protocol Protocol
	D        [6]float64 // Gb/s for D0..D5
}

// RunFig12a reproduces Fig. 12a for one protocol.
func RunFig12a(proto Protocol, duration sim.Time, seed int64) Fig12aRow {
	return runFig12a(proto, duration, seed, 1)
}

// runFig12a is RunFig12a on the given number of engine shards; the row
// is the same with both switches on one and with the inter-switch link
// as the cut (the determinism test's seam).
func runFig12a(proto Protocol, duration sim.Time, seed int64, shards int) Fig12aRow {
	if duration == 0 {
		duration = 40 * sim.Millisecond
	}
	engine := sim.New()
	m := topology.BuildMultiBottleneck(engine, seed)
	topology.PartitionAuto(m.Net, shards).Apply(m.Net)
	mix := NewMix(m.Net, 10*sim.Microsecond)
	mix.Activate(proto)
	mix.EnablePorts(proto, m.Inter, m.Access)
	// Also enable every other egress port so the protocol sees all
	// potential CPs, as a deployment would.
	for _, sw := range m.Net.Switches() {
		for _, p := range sw.Ports() {
			if p != m.Inter && p != m.Access && p.CC == nil {
				mix.EnablePort(proto, p)
			}
		}
	}
	for _, b := range m.B {
		mix.AttachReceiver(proto, b)
	}
	offered := netsim.Gbps(10 * 0.9)
	var flows [6]*netsim.Flow
	flows[0] = mix.StartFlow(proto, m.A[0], m.B[0], -1, offered) // D0: two CPs
	for i := 1; i <= 4; i++ {
		flows[i] = mix.StartFlow(proto, m.A[i], m.B[i], -1, offered)
	}
	flows[5] = mix.StartFlow(proto, m.B5, m.B[0], -1, offered) // D5: access CP only

	half := duration / 2
	engine.RunUntil(half)
	var mid [6]int64
	for i, f := range flows {
		mid[i] = f.DeliveredBytes()
	}
	engine.RunUntil(duration)
	row := Fig12aRow{Protocol: proto}
	window := (duration - half).Seconds()
	for i, f := range flows {
		row.D[i] = float64(f.DeliveredBytes()-mid[i]) * 8 / window / 1e9
	}
	return row
}

// Fig12bRow is one protocol's per-flow average throughput on the
// asymmetric topology (Fig. 12b). The fair share is 100/7 ≈ 14.3 Gb/s
// for every flow.
type Fig12bRow struct {
	Protocol Protocol
	SlowAvg  float64 // Gb/s, mean of D0..D4 (40G access)
	FastAvg  float64 // Gb/s, mean of D5..D6 (100G access)
	D        [7]float64
}

// RunFig12b reproduces Fig. 12b for one protocol.
func RunFig12b(proto Protocol, duration sim.Time, seed int64) Fig12bRow {
	if duration == 0 {
		duration = 40 * sim.Millisecond
	}
	engine := sim.New()
	a := topology.BuildAsymmetric(engine, seed)
	mix := NewMix(a.Net, 12*sim.Microsecond)
	mix.Activate(proto)
	mix.EnableAllSwitchPorts()
	mix.AttachReceiver(proto, a.Dst)
	var flows [7]*netsim.Flow
	for i, src := range a.Slow {
		flows[i] = mix.StartFlow(proto, src, a.Dst, -1, netsim.Gbps(40*0.9))
	}
	for i, src := range a.Fast {
		flows[5+i] = mix.StartFlow(proto, src, a.Dst, -1, netsim.Gbps(100*0.9))
	}
	half := duration / 2
	engine.RunUntil(half)
	var mid [7]int64
	for i, f := range flows {
		mid[i] = f.DeliveredBytes()
	}
	engine.RunUntil(duration)
	row := Fig12bRow{Protocol: proto}
	window := (duration - half).Seconds()
	for i, f := range flows {
		row.D[i] = float64(f.DeliveredBytes()-mid[i]) * 8 / window / 1e9
	}
	for i := 0; i < 5; i++ {
		row.SlowAvg += row.D[i] / 5
	}
	for i := 5; i < 7; i++ {
		row.FastAvg += row.D[i] / 2
	}
	return row
}

// Fig19Result verifies a baseline implementation (App. A.1): per-flow
// throughput as N ramps 1→4→1 with one change per phase.
type Fig19Result struct {
	Protocol   Protocol
	PhaseN     []int
	PhaseRates [][]float64 // per-phase, per-active-flow Gb/s
}

// RunFig19 reproduces App. A.1's verification ladder for one protocol.
// phase is the time between flow count changes (1 s in the paper; the
// default benches use shorter phases — the controllers converge in
// milliseconds).
func RunFig19(proto Protocol, phase sim.Time, seed int64) Fig19Result {
	if phase == 0 {
		phase = 20 * sim.Millisecond
	}
	counts := []int{1, 2, 3, 4, 3, 2, 1}
	engine := sim.New()
	star := topology.BuildStar(engine, seed, 4, netsim.Gbps(40))
	mix := NewMix(star.Net, 8*sim.Microsecond)
	mix.Activate(proto)
	mix.EnablePort(proto, star.Bottleneck)
	mix.AttachReceiver(proto, star.Dst)

	var flows []*netsim.Flow
	setCount := func(n int) {
		for len(flows) < n {
			src := star.Sources[len(flows)]
			flows = append(flows, mix.StartFlow(proto, src, star.Dst, -1, 0))
		}
		for len(flows) > n {
			flows[len(flows)-1].Stop()
			flows = flows[:len(flows)-1]
		}
	}
	res := Fig19Result{Protocol: proto}
	type snapshot struct{ delivered []int64 }
	var snaps []snapshot
	takeSnap := func() {
		s := snapshot{delivered: make([]int64, 4)}
		for i, f := range flows {
			s.delivered[i] = f.DeliveredBytes()
		}
		_ = s
		snaps = append(snaps, s)
	}
	for i, n := range counts {
		setCount(n)
		// Measure over the second half of the phase.
		engine.RunUntil(sim.Time(i)*phase + phase/2)
		takeSnap()
		engine.RunUntil(sim.Time(i+1) * phase)
		rates := make([]float64, n)
		last := snaps[len(snaps)-1]
		for j := 0; j < n && j < len(flows); j++ {
			rates[j] = float64(flows[j].DeliveredBytes()-last.delivered[j]) * 8 / (phase / 2).Seconds() / 1e9
		}
		res.PhaseN = append(res.PhaseN, n)
		res.PhaseRates = append(res.PhaseRates, rates)
	}
	return res
}

// FormatGbps renders a rate list compactly for CLI output.
func FormatGbps(rates []float64) string {
	out := ""
	for i, r := range rates {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", r)
	}
	return out
}
