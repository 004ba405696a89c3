package experiments

import (
	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
)

// Recovery benchmark: every protocol on a fat-tree through a hard
// topology failure and restore. Persistent cross-edge flows establish a
// steady state, a core link or a whole core switch dies mid-run and
// comes back, and the experiment reports how deep goodput dipped, how
// long the fabric took to climb back to 90% of its pre-failure rate,
// and how fairly the protocols shared capacity once healed.

// Kill kinds for RecoveryConfig.Kill.
const (
	KillNone   = "none"   // no failure: the byte-identity baseline
	KillLink   = "link"   // one edge→core uplink (EdgeUp[0])
	KillSwitch = "switch" // a whole core switch (Cores[0])
)

// The recovery fabric and its measurement, fixed for every cell.
const (
	// RecoveryHostsPerEdge sizes the fat-tree: cores=2, edges=3, one link
	// per edge-core pair.
	RecoveryHostsPerEdge = 4

	// recoveryBinWidth is the goodput sampling window.
	recoveryBinWidth = 200 * sim.Microsecond

	// recoveryRateMbps caps each flow's offered rate, keeping the fabric
	// under its 2:1 oversubscribed uplinks so dips are failure-caused, not
	// congestion-caused.
	recoveryRateMbps = 16000
)

// RecoveryConfig parameterizes one recovery cell.
type RecoveryConfig struct {
	Protocol Protocol
	Kill     string // KillNone, KillLink or KillSwitch

	// Duration is the run length. FailAt and RestoreAt bound the outage;
	// both must leave room for a steady state before and a recovery
	// after. Defaults: a 12 ms run, failing at a third of it and
	// restoring at half.
	Duration  sim.Time
	FailAt    sim.Time
	RestoreAt sim.Time

	Seed int64
}

// Filled returns the configuration with all defaults applied.
func (c RecoveryConfig) Filled() RecoveryConfig {
	if c.Kill == "" {
		c.Kill = KillNone
	}
	if c.Duration == 0 {
		c.Duration = 12 * sim.Millisecond
	}
	if c.FailAt == 0 {
		c.FailAt = c.Duration / 3
	}
	if c.RestoreAt == 0 {
		c.RestoreAt = c.Duration / 2
	}
	return c
}

// RecoveryResult is one protocol × kill-kind cell.
type RecoveryResult struct {
	Config RecoveryConfig

	BaselineGbps float64 // mean goodput over the pre-failure window
	DipGbps      float64 // lowest bin during the outage+reconvergence
	DipDepth     float64 // 1 - DipGbps/BaselineGbps (0 = no dip)

	// T90 is the time from the restore instant until the first bin back
	// at >= 90% of baseline goodput; -1 if the run ended first.
	T90 sim.Time

	// JainPostRecovery is fairness across per-flow goodput from the
	// recovery snapshot (restore + reconvergence + margin) to the end.
	JainPostRecovery float64

	BlackholeDrops uint64
	LinkDownDrops  uint64
	Reconverges    uint64
	RetxBytes      int64
	DeliveredBytes int64

	// Bins is the full goodput series in Gb/s (for -csv export).
	Bins []float64
}

// RunRecovery executes one recovery cell.
func RunRecovery(cfg RecoveryConfig) RecoveryResult {
	cfg = cfg.Filled()
	engine := sim.New()
	ft := topology.BuildFatTree(engine, cfg.Seed, topology.SmallFatTree(2, 3, RecoveryHostsPerEdge, 40))
	net := ft.Net
	// Outages lose feedback wholesale; RoCC runs with the paper's
	// staleness re-homing so CP loss degrades instead of wedging.
	run := Assemble(RunSpec{Net: net, FatTree: ft, Seed: cfg.Seed,
		RoCCRP: roccnet.RPOptions{StaleK: core.DefaultStaleK}, Protocols: []Protocol{cfg.Protocol}})

	// Cross-edge persistent flows: host h of edge e sends to host h of
	// edge e+1, so every flow crosses the core and feels the failure.
	var flows []*netsim.Flow
	for e := range ft.Hosts {
		for h, src := range ft.Hosts[e] {
			dst := ft.Hosts[(e+1)%len(ft.Hosts)][h]
			flows = append(flows, run.StartFlow(cfg.Protocol, src, dst,
				-1, netsim.Mbps(recoveryRateMbps), true, nil))
		}
	}

	if cfg.Kill != KillNone {
		inj := run.Injector()
		switch cfg.Kill {
		case KillLink:
			a := ft.EdgeUp[0]
			b := a.PeerNode.Ports()[a.PeerPort]
			inj.KillLink(a, b, cfg.FailAt, cfg.RestoreAt)
		case KillSwitch:
			inj.KillSwitch(ft.Cores[0], cfg.FailAt, cfg.RestoreAt)
		default:
			panic("experiments: unknown recovery kill kind " + cfg.Kill)
		}
	}

	// Goodput bins: delivered-byte deltas per recoveryBinWidth tick.
	var bins []float64
	var lastBytes int64
	binSeconds := recoveryBinWidth.Seconds()
	total := func() int64 {
		var t int64
		for _, f := range flows {
			t += f.DeliveredBytes()
		}
		return t
	}
	ticker := engine.NewTicker(recoveryBinWidth, func() {
		cur := total()
		bins = append(bins, float64(cur-lastBytes)*8/binSeconds/1e9)
		lastBytes = cur
	})
	defer ticker.Stop()

	// Recovery snapshot: per-flow delivered bytes once the restored
	// fabric has reconverged (plus a scheduling margin).
	snapAt := cfg.RestoreAt + netsim.DefaultReconvergeDelay + 100*sim.Microsecond
	// A run that ends before snapAt measures from zero.
	snap := make([]int64, len(flows))
	engine.At(snapAt, func() { snap = delivered(flows) })

	engine.RunUntil(cfg.Duration)

	res := RecoveryResult{
		Config:         cfg,
		Bins:           bins,
		BlackholeDrops: net.BlackholeDrops(),
		LinkDownDrops:  net.LinkDownDrops(),
		Reconverges:    net.Reconverges(),
		RetxBytes:      net.RetxBytesTotal,
		DeliveredBytes: total(),
		T90:            -1,
	}

	binAt := func(t sim.Time) int { return int(t / recoveryBinWidth) }
	// Baseline: mean goodput over the settled half of the pre-failure
	// window, [FailAt/2, FailAt).
	lo, hi := binAt(cfg.FailAt/2), binAt(cfg.FailAt)
	if hi > len(bins) {
		hi = len(bins)
	}
	for i := lo; i < hi; i++ {
		res.BaselineGbps += bins[i]
	}
	if hi > lo {
		res.BaselineGbps /= float64(hi - lo)
	}

	// Dip: the worst bin from the failure through reconvergence after
	// the restore (two extra bins of margin for in-flight losses).
	dipEnd := binAt(cfg.RestoreAt+netsim.DefaultReconvergeDelay) + 2
	if dipEnd > len(bins) {
		dipEnd = len(bins)
	}
	res.DipGbps = res.BaselineGbps
	for i := binAt(cfg.FailAt); i < dipEnd; i++ {
		if bins[i] < res.DipGbps {
			res.DipGbps = bins[i]
		}
	}
	if res.BaselineGbps > 0 {
		res.DipDepth = 1 - res.DipGbps/res.BaselineGbps
	}

	// T90: first bin at or after the restore back at 90% of baseline.
	// Meaningless without a failure or without a baseline bin, so those
	// cells keep -1.
	if cfg.Kill != KillNone && hi > lo {
		for i := binAt(cfg.RestoreAt); i < len(bins); i++ {
			if bins[i] >= 0.9*res.BaselineGbps {
				res.T90 = sim.Time(i+1)*recoveryBinWidth - cfg.RestoreAt
				break
			}
		}
	}

	// Post-recovery fairness over per-flow deltas since the snapshot.
	res.JainPostRecovery = stats.JainIndex(windowGbps(delivered(flows), snap, cfg.Duration-snapAt))
	return res
}

// RecoveryCells builds the full sweep: every protocol through a link
// kill and a switch kill on the shared base configuration.
func RecoveryCells(base RecoveryConfig) []RecoveryConfig {
	var cells []RecoveryConfig
	for _, p := range AllProtocols() {
		for _, kill := range []string{KillLink, KillSwitch} {
			c := base
			c.Protocol = p
			c.Kill = kill
			cells = append(cells, c)
		}
	}
	return cells
}
