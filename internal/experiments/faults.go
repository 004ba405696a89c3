package experiments

import (
	"fmt"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
)

// FaultsConfig parameterizes the robustness scenario: RoCC on the star
// micro-benchmark with faults injected into the control and data paths.
// All fault fields at zero reproduce the fault-free baseline exactly.
type FaultsConfig struct {
	N        int
	Gbps     float64
	Duration sim.Time
	Seed     int64

	// FaultSeed seeds the injector's RNG streams, independent of the
	// workload seed. Zero derives it from Seed.
	FaultSeed int64

	// CNPLoss is the probability each CNP the switch generates is lost
	// (control-path feedback loss, §2's "CNPs are best-effort").
	CNPLoss float64

	// CNPCorrupt is the probability each CNP leaving the switch toward a
	// source arrives with garbage rate units (tests RP validation).
	CNPCorrupt float64

	// FlapPeriod/FlapDown flap source 0's access link: every period the
	// link is down for FlapDown, losing data, CNPs and PFC frames.
	FlapPeriod sim.Time
	FlapDown   sim.Time

	// StallPeriod/StallFor silence the switch's CP for StallFor out of
	// every StallPeriod (a stalled CP timer: late feedback).
	StallPeriod sim.Time
	StallFor    sim.Time
}

func (c FaultsConfig) fill() FaultsConfig {
	if c.N == 0 {
		c.N = 10
	}
	if c.Gbps == 0 {
		c.Gbps = 40
	}
	if c.Duration == 0 {
		c.Duration = 20 * sim.Millisecond
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Seed + 0x5eed
	}
	return c
}

// Label names the dominant fault of a configuration for report rows.
func (c FaultsConfig) Label() string {
	switch {
	case c.CNPLoss > 0:
		return fmt.Sprintf("cnp-loss %.0f%%", c.CNPLoss*100)
	case c.CNPCorrupt > 0:
		return fmt.Sprintf("cnp-corrupt %.0f%%", c.CNPCorrupt*100)
	case c.FlapPeriod > 0:
		return fmt.Sprintf("link-flap %.1f/%.0fms", c.FlapDown.Seconds()*1e3, c.FlapPeriod.Seconds()*1e3)
	case c.StallPeriod > 0:
		return fmt.Sprintf("cp-stall %.1f/%.0fms", c.StallFor.Seconds()*1e3, c.StallPeriod.Seconds()*1e3)
	}
	return "fault-free"
}

// FaultsResult is one robustness cell: how much throughput and queue
// stability survived the injected faults, and which degradation paths
// (staleness recovery, feedback validation) fired.
type FaultsResult struct {
	Config FaultsConfig

	ThroughputGbps float64 // aggregate goodput over the second half
	QueueMeanKB    float64
	QueueMaxKB     float64
	Jain           float64 // fairness across surviving flows

	StaleRecoveries int // RP staleness re-homings (summed over flows)
	CNPsRejected    int // malformed CNPs discarded by RP validation
	CNPsAccepted    int
	PFCFrames       int
	Faults          faults.Stats
}

// RunFaults executes one robustness cell.
func RunFaults(cfg FaultsConfig) FaultsResult {
	cfg = cfg.fill()
	engine := sim.New()
	star := topology.BuildStar(engine, cfg.Seed, cfg.N, netsim.Gbps(cfg.Gbps))
	roccnet.Attach(star.Net, star.Switch, star.Bottleneck, roccnet.CPOptions{})

	// Flows are wired by hand (not through Mix) so the per-flow RPs
	// stay reachable for the staleness and rejection counters.
	offered := netsim.Gbps(cfg.Gbps * 0.9)
	ccs := make([]*roccnet.FlowCC, cfg.N)
	flows := make([]*netsim.Flow, cfg.N)
	for i, src := range star.Sources {
		// Staleness handling on: the point of the scenario is measuring
		// how fast flows re-home when feedback stops.
		ccs[i] = roccnet.NewFlowCC(src, roccnet.RPOptions{StaleK: core.DefaultStaleK})
		flows[i] = star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size:    -1,
			MaxRate: offered,
			CC:      ccs[i],
		})
	}

	inj := faults.New(star.Net, cfg.FaultSeed)
	inj.DropCNPs(star.Switch, cfg.CNPLoss)
	if cfg.CNPCorrupt > 0 {
		// Corruption strikes CNPs in flight on the switch→source wires.
		for _, src := range star.Sources {
			inj.Direction(star.Switch.PortTo(src), faults.LinkConfig{
				Corrupt: cfg.CNPCorrupt,
				Match:   faults.MatchCNPs,
			})
		}
	}
	if cfg.FlapPeriod > 0 {
		sw := star.Switch.PortTo(star.Sources[0])
		inj.Flap(sw, star.Sources[0].NIC(), cfg.FlapPeriod, cfg.FlapDown)
	}
	inj.StallCP(star.Switch, cfg.StallPeriod, cfg.StallFor)

	sampler := NewSampler(engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)

	half := cfg.Duration / 2
	engine.RunUntil(half)
	mid := make([]int64, cfg.N)
	for i, f := range flows {
		mid[i] = f.DeliveredBytes()
	}
	engine.RunUntil(cfg.Duration)

	window := (cfg.Duration - half).Seconds()
	perFlow := make([]float64, cfg.N)
	res := FaultsResult{Config: cfg, Faults: inj.Stats(), PFCFrames: star.Net.TotalPFCFrames()}
	for i, f := range flows {
		perFlow[i] = float64(f.DeliveredBytes()-mid[i]) * 8 / window / 1e9
		res.ThroughputGbps += perFlow[i]
		rp := ccs[i].RP()
		res.StaleRecoveries += rp.StaleRecoveries
		res.CNPsRejected += rp.CNPsRejected
		res.CNPsAccepted += rp.CNPsAccepted
	}
	res.Jain = stats.JainIndex(perFlow)
	res.QueueMeanKB = queue.MeanAfter(half.Seconds())
	for _, p := range queue.Points {
		if p.V > res.QueueMaxKB {
			res.QueueMaxKB = p.V
		}
	}
	return res
}

// RunFaultsGrid runs robustness cells across workers; cell i uses
// cfgs[i] and lands at out[i] regardless of completion order.
func RunFaultsGrid(cfgs []FaultsConfig, workers int) []harness.Result[FaultsResult] {
	return harness.Run(len(cfgs), harness.Options{Workers: workers}, func(i int) (FaultsResult, error) {
		return RunFaults(cfgs[i]), nil
	})
}

// FaultsCells builds the default robustness sweep around a base
// configuration: the fault-free baseline first, then CNP loss at each
// probability in losses, CNP corruption, a link flap, and a CP stall.
// A negative flapPeriod drops the flap and stall rows.
func FaultsCells(base FaultsConfig, losses []float64, flapPeriod sim.Time) []FaultsConfig {
	cells := []FaultsConfig{base}
	for _, p := range losses {
		c := base
		c.CNPLoss = p
		cells = append(cells, c)
	}
	c := base
	c.CNPCorrupt = 0.05
	cells = append(cells, c)
	if flapPeriod >= 0 {
		if flapPeriod == 0 {
			flapPeriod = 5 * sim.Millisecond
		}
		c = base
		c.FlapPeriod = flapPeriod
		c.FlapDown = flapPeriod / 10
		cells = append(cells, c)
		c = base
		c.StallPeriod = 2 * sim.Millisecond
		c.StallFor = 1 * sim.Millisecond
		cells = append(cells, c)
	}
	return cells
}
