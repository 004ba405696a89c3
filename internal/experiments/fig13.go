package experiments

import (
	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
)

// Fig13Scenario selects the testbed traffic mix (§6.2).
type Fig13Scenario string

// The two §6.2 scenarios.
const (
	// Fig13Uniform: every client offers the full 10 Gb/s link rate.
	// Expected outcome: queue stable at 75 KB, fair rate ~3.3 Gb/s.
	Fig13Uniform Fig13Scenario = "uni"
	// Fig13Mixed: clients offer 10, 3 and 1 Gb/s. Flows 2 and 3 are
	// below their fair share (innocent); flow 1 converges to the max-min
	// rate of 6 Gb/s.
	Fig13Mixed Fig13Scenario = "mix"
)

// Fig13CPConfig returns the §6.2 testbed CP parameters: 10 Gb/s links,
// Qref/Qmid/Qmax = 75/150/210 KB, T = 100 µs.
func Fig13CPConfig() core.CPConfig {
	cfg := core.CPConfigForGbps(10)
	cfg.QrefBytes = 75 * netsim.KB
	cfg.QmidBytes = 150 * netsim.KB
	cfg.QmaxBytes = 210 * netsim.KB
	return cfg
}

// Fig13Result is the simulation twin of the DPDK testbed run.
type Fig13Result struct {
	Scenario    Fig13Scenario
	SteadyQueKB float64
	SteadyRate  float64 // Gb/s
}

// RunFig13Sim reproduces the simulation halves of Fig. 13 (sim-uni /
// sim-mix). The real-socket halves live in internal/testbed.
func RunFig13Sim(scenario Fig13Scenario, duration sim.Time, seed int64) Fig13Result {
	if duration == 0 {
		duration = 100 * sim.Millisecond
	}
	star := newStar(ProtoRoCC, 3, 10, false,
		RunSpec{Seed: seed, RoCCOpts: roccnet.CPOptions{Core: Fig13CPConfig(), T: 100 * sim.Microsecond}})
	offered := []float64{10, 10, 10}
	if scenario == Fig13Mixed {
		offered = []float64{10, 3, 1}
	}
	for i, gbps := range offered {
		star.start(i, netsim.Gbps(gbps))
	}
	sampler := NewSampler(star.engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)
	rate := sampler.FairRate(star.Mix, star.Bottleneck)
	star.engine.RunUntil(duration)

	half := duration.Seconds() / 2
	return Fig13Result{
		Scenario:    scenario,
		SteadyQueKB: queue.MeanAfter(half),
		SteadyRate:  rate.MeanAfter(half),
	}
}
