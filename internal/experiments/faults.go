package experiments

import (
	"fmt"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
)

// FaultSeedOffset decorrelates a fault injector's RNG streams from the
// workload's: every experiment seeds its injector with Seed+FaultSeedOffset.
const FaultSeedOffset = 0x5eed

// The robustness scenario runs on the Fig. 11 star: N=10, B=40 Gb/s.
const (
	faultsN    = 10
	faultsGbps = 40
)

// FaultsConfig parameterizes the robustness scenario: RoCC on the star
// micro-benchmark with faults injected into the control and data paths.
// All fault fields at zero reproduce the fault-free baseline exactly.
type FaultsConfig struct {
	Duration sim.Time
	Seed     int64

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
	if c.Duration == 0 {
		c.Duration = 20 * sim.Millisecond
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
	star := topology.BuildStar(engine, cfg.Seed, faultsN, netsim.Gbps(faultsGbps))
	// Staleness handling on: the point of the scenario is measuring how
	// fast flows re-home when feedback stops.
	run := Assemble(RunSpec{Net: star.Net, Seed: cfg.Seed, RoCCRP: roccnet.RPOptions{StaleK: core.DefaultStaleK},
		Protocols: []Protocol{ProtoRoCC}, Ports: []*netsim.Port{star.Bottleneck}})
	offered := netsim.Gbps(faultsGbps * 0.9)
	flows := make([]*netsim.Flow, faultsN)
	for i, src := range star.Sources {
		flows[i] = run.Mix.StartFlow(ProtoRoCC, src, star.Dst, -1, offered)
	}

	inj := run.Injector()
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
	perFlow := runMeasured(engine, flows, half, cfg.Duration)
	res := FaultsResult{Config: cfg, Faults: inj.Stats(), PFCFrames: star.Net.TotalPFCFrames()}
	for i, f := range flows {
		res.ThroughputGbps += perFlow[i]
		rp := f.CC.(*roccnet.FlowCC).RP()
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

// FaultsCells builds the default robustness sweep around a base
// configuration: the fault-free baseline first, then CNP loss at each
// probability in losses, CNP corruption, a link flap (flapPeriod, or
// 5 ms when zero), and a CP stall.
func FaultsCells(base FaultsConfig, losses []float64, flapPeriod sim.Time) []FaultsConfig {
	cells := []FaultsConfig{base}
	for _, p := range losses {
		c := base
		c.CNPLoss = p
		cells = append(cells, c)
	}
	if flapPeriod == 0 {
		flapPeriod = 5 * sim.Millisecond
	}
	c := base
	c.CNPCorrupt = 0.05
	cells = append(cells, c)
	c = base
	c.FlapPeriod = flapPeriod
	c.FlapDown = flapPeriod / 10
	cells = append(cells, c)
	c = base
	c.StallPeriod = 2 * sim.Millisecond
	c.StallFor = 1 * sim.Millisecond
	return append(cells, c)
}
