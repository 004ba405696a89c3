package experiments

import (
	"cmp"

	"rocc/internal/netsim"
	"rocc/internal/roccnet"
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
	star := newStar(cfg.Protocol, cfg.N, cfg.Gbps, false, RunSpec{Seed: cfg.Seed, Telemetry: cfg.Telemetry})
	star.startAll(netsim.Gbps(cfg.Gbps * 0.9))
	sampler := NewSampler(star.engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	rate := sampler.FairRate(star.Mix, star.Bottleneck)
	star.engine.RunUntil(cfg.Duration)

	half := cfg.Duration.Seconds() / 2
	res := Fig8Result{
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

// Fig. 9's operating point, the paper's: a 40 Gb/s star whose flow count
// doubles from 3 up to 100 (3·2⁵ = 96, then 100) and halves back.
const (
	fig9Gbps  = 40
	fig9Start = 3
	fig9Peak  = 100
)

// Fig9Config parameterizes the convergence ladder (Fig. 9): flows start
// in waves so N doubles from 3 to 100, then stop so it halves back.
type Fig9Config struct {
	Phase    sim.Time // time between load changes (10 ms in the paper)
	Seed     int64
	Protocol Protocol // defaults to RoCC

	// Telemetry optionally attaches an observability bundle (see
	// RunTelemetry); nil keeps telemetry disabled.
	Telemetry *RunTelemetry
}

// Fig9Result holds the queue/fair-rate series and per-phase steady rates.
type Fig9Result struct {
	Queue      *stats.Series // KB
	FairRate   *stats.Series // Gb/s
	PhaseN     []int         // flow count during each phase
	PhaseRates []float64     // mean fair rate over each phase's second half (Gb/s)
	PFCFrames  int
}

// RunFig9 reproduces Fig. 9: exponential load increase then decrease.
func RunFig9(cfg Fig9Config) Fig9Result {
	if cfg.Phase == 0 {
		cfg.Phase = 10 * sim.Millisecond
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtoRoCC
	}
	// Build the ladder of flow counts: double up to the peak, then halve.
	var counts []int
	for n := fig9Start; n < fig9Peak; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, fig9Peak)
	for i := len(counts) - 2; i >= 0; i-- {
		counts = append(counts, counts[i])
	}

	star := newStar(cfg.Protocol, fig9Peak, fig9Gbps, false, RunSpec{Seed: cfg.Seed, Telemetry: cfg.Telemetry})
	offered := netsim.Gbps(fig9Gbps * 0.9)
	flows := star.setCount(nil, counts[0], offered)
	for i, n := range counts[1:] {
		star.engine.At(sim.Time(i+1)*cfg.Phase, func() { flows = star.setCount(flows, n, offered) })
	}

	sampler := NewSampler(star.engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	rate := sampler.FairRate(star.Mix, star.Bottleneck)
	star.engine.RunUntil(sim.Time(len(counts)) * cfg.Phase)

	res := Fig9Result{Queue: queue, FairRate: rate, PhaseN: counts, PFCFrames: star.Net.TotalPFCFrames()}
	for i := range counts {
		start := sim.Time(i) * cfg.Phase
		res.PhaseRates = append(res.PhaseRates, rate.MeanIn((start+cfg.Phase/2).Seconds(), (start+cfg.Phase).Seconds()))
	}
	return res
}

// Fig. 11's operating point, the paper's: N=10 sources, B=40 Gb/s.
const (
	fig11N    = 10
	fig11Gbps = 40
)

// Fig11Config parameterizes the six-way comparison (Fig. 11).
type Fig11Config struct {
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
}

// RunFig11 reproduces Fig. 11 for one protocol.
func RunFig11(proto Protocol, cfg Fig11Config) Fig11Row {
	if cfg.Duration == 0 {
		cfg.Duration = 40 * sim.Millisecond
	}
	star := newStar(proto, fig11N, fig11Gbps, false, RunSpec{Seed: cfg.Seed, BaseRTT: 8 * sim.Microsecond})
	flows := star.startAll(netsim.Gbps(fig11Gbps * 0.9))
	sampler := NewSampler(star.engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	tput := sampler.PortThroughput("bottleneck", star.Bottleneck)

	half := cfg.Duration / 2
	perFlow := runMeasured(star.engine, flows, half, cfg.Duration)
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
		Utilization:  tput.MeanAfter(half.Seconds()) / fig11Gbps,
	}
	return row
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
	// The two bottlenecks first, then every other egress port so the
	// protocol sees all potential CPs, as a deployment would. The order is
	// output: DCQCN's markers split their random streams in wiring order.
	ports := []*netsim.Port{m.Inter, m.Access}
	for _, sw := range m.Net.Switches() {
		for _, p := range sw.Ports() {
			if p != m.Inter && p != m.Access {
				ports = append(ports, p)
			}
		}
	}
	mix := Assemble(RunSpec{Net: m.Net, Shards: shards, BaseRTT: 10 * sim.Microsecond,
		Protocols: []Protocol{proto}, Ports: ports}).Mix
	offered := netsim.Gbps(10 * 0.9)
	flows := make([]*netsim.Flow, 6)
	flows[0] = mix.StartFlow(proto, m.A[0], m.B[0], -1, offered) // D0: two CPs
	for i := 1; i <= 4; i++ {
		flows[i] = mix.StartFlow(proto, m.A[i], m.B[i], -1, offered)
	}
	flows[5] = mix.StartFlow(proto, m.B5, m.B[0], -1, offered) // D5: access CP only

	row := Fig12aRow{Protocol: proto}
	copy(row.D[:], runMeasured(engine, flows, duration/2, duration))
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
	mix := Assemble(RunSpec{Net: a.Net, BaseRTT: 12 * sim.Microsecond, Protocols: []Protocol{proto}}).Mix
	flows := make([]*netsim.Flow, 7)
	for i, src := range a.Slow {
		flows[i] = mix.StartFlow(proto, src, a.Dst, -1, netsim.Gbps(40*0.9))
	}
	for i, src := range a.Fast {
		flows[5+i] = mix.StartFlow(proto, src, a.Dst, -1, netsim.Gbps(100*0.9))
	}
	row := Fig12bRow{Protocol: proto}
	copy(row.D[:], runMeasured(engine, flows, duration/2, duration))
	for i := 0; i < 5; i++ {
		row.SlowAvg += row.D[i] / 5
	}
	for i := 5; i < 7; i++ {
		row.FastAvg += float64(row.D[i] / 2)
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
	star := newStar(proto, 4, 40, false, RunSpec{Seed: seed, BaseRTT: 8 * sim.Microsecond})
	var flows []*netsim.Flow
	res := Fig19Result{Protocol: proto}
	for i, n := range counts {
		flows = star.setCount(flows, n, 0)
		// Measure over the second half of the phase.
		star.engine.RunUntil(sim.Time(i)*phase + phase/2)
		mid := delivered(flows)
		star.engine.RunUntil(sim.Time(i+1) * phase)
		res.PhaseN = append(res.PhaseN, n)
		res.PhaseRates = append(res.PhaseRates, windowGbps(delivered(flows), mid, phase/2))
	}
	return res
}

// RunQoS runs the §8 future-work extension, class-level fairness through
// weighted fair rates on the bottleneck's RoCC CP: six flows on a 40 Gb/s
// star alternate between classes gold (weight 1) and silver (0.5). It
// returns each class's goodput in Gb/s over the run (default 20 ms).
func RunQoS(duration sim.Time, seed int64) (shares [2]float64) {
	weights := [2]float64{1, 0.5}
	class := map[netsim.FlowID]int{}
	star := newStar(ProtoRoCC, 6, 40, false,
		RunSpec{Seed: seed, RoCCOpts: roccnet.CPOptions{Weight: func(f netsim.FlowID) float64 { return weights[class[f]] }}})
	flows := star.startAll(netsim.Gbps(36))
	for i, f := range flows {
		class[f.ID] = i % 2
	}
	star.engine.RunUntil(cmp.Or(duration, 20*sim.Millisecond))
	for _, f := range flows {
		shares[class[f.ID]] += float64(f.DeliveredBytes()) * 8 / star.engine.Now().Seconds() / 1e9
	}
	return shares
}
