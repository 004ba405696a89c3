package experiments

import (
	"fmt"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
)

// FaultSeedOffset decorrelates a fault injector's RNG streams from the
// workload's: every experiment seeds its injector with Seed+FaultSeedOffset.
const FaultSeedOffset = 0x5eed

// FaultsConfig parameterizes the robustness scenario: RoCC on the Fig. 11
// star (N=10, B=40 Gb/s) with faults injected into the control and data paths.
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
	// link is down for FlapDown, losing data, CNPs and PFC frames. Only
	// outages that end within Duration start.
	FlapPeriod sim.Time
	FlapDown   sim.Time

	// StallPeriod/StallFor silence the switch's CP for StallFor out of
	// every StallPeriod (a stalled CP timer: late feedback). Only windows
	// that end within Duration open.
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
		return fmt.Sprintf("link-flap %v/%vms", c.FlapDown.Millis(), c.FlapPeriod.Millis())
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
	Jain           float64 // fairness across surviving flows

	StaleRecoveries int // RP staleness re-homings (summed over flows)
	CNPsRejected    int // malformed CNPs discarded by RP validation
	Faults          faults.Stats
}

// Fired reports whether the cell's fault acted at least once; a row whose
// fault never fired would only repeat the fault-free baseline. The
// fault-free cell reports true.
func (r FaultsResult) Fired() bool {
	c, s := r.Config, r.Faults
	switch {
	case c.CNPLoss > 0:
		return s.CNPsLost > 0
	case c.CNPCorrupt > 0:
		return s.Corrupted > 0
	case c.FlapPeriod > 0:
		return s.Flaps > 0
	case c.StallPeriod > 0:
		return s.StallWindows > 0
	}
	return true
}

// RunFaults executes one robustness cell.
func RunFaults(cfg FaultsConfig) FaultsResult {
	cfg = cfg.fill()
	// Staleness handling on: the point of the scenario is measuring how
	// fast flows re-home when feedback stops.
	star := newStar(ProtoRoCC, fig11N, fig11Gbps, false,
		RunSpec{Seed: cfg.Seed, RoCCRP: roccnet.RPOptions{StaleK: core.DefaultStaleK}})
	flows := star.startAll(netsim.Gbps(fig11Gbps * 0.9))

	inj := star.Injector()
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
		inj.Flap(sw, star.Sources[0].NIC(), cfg.FlapPeriod, cfg.FlapDown, cfg.Duration)
	}
	if cfg.StallPeriod > 0 {
		inj.StallCP(star.Switch, cfg.StallPeriod, cfg.StallFor, cfg.Duration)
	}

	sampler := NewSampler(star.engine, 0)
	queue := sampler.Queue("queue", star.Bottleneck)

	half := cfg.Duration / 2
	perFlow := runMeasured(star.engine, flows, half, cfg.Duration)
	res := FaultsResult{Config: cfg, Faults: inj.Stats()}
	for i, f := range flows {
		res.ThroughputGbps += perFlow[i]
		rp := f.CC.(*roccnet.FlowCC).RP()
		res.StaleRecoveries += rp.StaleRecoveries
		res.CNPsRejected += rp.CNPsRejected
	}
	res.Jain = stats.JainIndex(perFlow)
	res.QueueMeanKB = queue.MeanAfter(half.Seconds())
	return res
}

// FaultsCells builds the default robustness sweep around a base
// configuration: the fault-free baseline first, then CNP loss at each
// probability in losses, CNP corruption, a link flap (flapPeriod, or a
// quarter of the run when zero), and a CP stall.
func FaultsCells(base FaultsConfig, losses []float64, flapPeriod sim.Time) []FaultsConfig {
	base = base.fill()
	cells := []FaultsConfig{base}
	for _, p := range losses {
		c := base
		c.CNPLoss = p
		cells = append(cells, c)
	}
	if flapPeriod == 0 {
		flapPeriod = base.Duration / 4
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
