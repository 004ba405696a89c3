package experiments

import (
	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/netsim"
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

// RecoveryConfig parameterizes one recovery cell.
type RecoveryConfig struct {
	Protocol Protocol
	Kill     string // KillNone, KillLink or KillSwitch

	// Duration is the run length. FailAt and RestoreAt bound the outage;
	// both must leave room for a steady state before and a recovery
	// after. Defaults: 12 ms run, fail at 4 ms, restore at 6 ms.
	Duration  sim.Time
	FailAt    sim.Time
	RestoreAt sim.Time

	// BinWidth is the goodput sampling window (default 200 µs).
	BinWidth sim.Time

	// HostsPerEdge sizes the fat-tree (default 4; cores=2, edges=3,
	// one link per edge-core pair).
	HostsPerEdge int

	// RateMbps caps each flow's offered rate (default 16000, keeping the
	// fabric under its 2:1 oversubscribed uplinks so dips are
	// failure-caused, not congestion-caused).
	RateMbps float64

	Seed int64
}

func (c RecoveryConfig) fill() RecoveryConfig {
	if c.Kill == "" {
		c.Kill = KillNone
	}
	if c.Duration == 0 {
		c.Duration = 12 * sim.Millisecond
	}
	if c.FailAt == 0 {
		c.FailAt = 4 * sim.Millisecond
	}
	if c.RestoreAt == 0 {
		c.RestoreAt = 6 * sim.Millisecond
	}
	if c.BinWidth == 0 {
		c.BinWidth = 200 * sim.Microsecond
	}
	if c.HostsPerEdge == 0 {
		c.HostsPerEdge = 4
	}
	if c.RateMbps == 0 {
		c.RateMbps = 16000
	}
	return c
}

// Filled returns the configuration with all defaults applied, for
// report headers.
func (c RecoveryConfig) Filled() RecoveryConfig { return c.fill() }

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
	cfg = cfg.fill()
	engine := sim.New()
	hostRate := netsim.Gbps(40)
	// 2:1 oversubscription: HostsPerEdge×40G offered, half that across
	// the cores×links uplinks.
	up := float64(cfg.HostsPerEdge) * hostRate.Gbps() / 2
	ft := topology.BuildFatTree(engine, cfg.Seed, topology.FatTreeConfig{
		Cores:        2,
		Edges:        3,
		HostsPerEdge: cfg.HostsPerEdge,
		LinksPerPair: 1,
		HostRate:     hostRate,
		CoreRate:     netsim.Gbps(up / 2),
	})
	net := ft.Net

	mix := NewMix(net, 0)
	// Outages lose feedback wholesale; RoCC runs with the paper's
	// staleness re-homing so CP loss degrades instead of wedging.
	mix.RoCCRP.StaleK = core.DefaultStaleK
	mix.Activate(cfg.Protocol)
	mix.EnableAllSwitchPorts()
	mix.AttachReceivers()

	// Cross-edge persistent flows: host h of edge e sends to host h of
	// edge e+1, so every flow crosses the core and feels the failure.
	var flows []*netsim.Flow
	for e := range ft.Hosts {
		for h, src := range ft.Hosts[e] {
			dst := ft.Hosts[(e+1)%len(ft.Hosts)][h]
			flows = append(flows, mix.StartWrappedFlow(cfg.Protocol, src, dst,
				-1, netsim.Mbps(cfg.RateMbps), true, nil))
		}
	}

	if cfg.Kill != KillNone {
		inj := faults.New(net, cfg.Seed+0x5eed)
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

	// Goodput bins: delivered-byte deltas per BinWidth tick.
	var bins []float64
	var lastBytes int64
	binSeconds := cfg.BinWidth.Seconds()
	total := func() int64 {
		var t int64
		for _, f := range flows {
			t += f.DeliveredBytes()
		}
		return t
	}
	ticker := engine.NewTicker(cfg.BinWidth, func() {
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
	for _, f := range flows {
		f.Stop()
	}

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

	binAt := func(t sim.Time) int { return int(t / cfg.BinWidth) }
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
	// Meaningless without a failure, so the baseline cell keeps -1.
	if cfg.Kill != KillNone {
		for i := binAt(cfg.RestoreAt); i < len(bins); i++ {
			if bins[i] >= 0.9*res.BaselineGbps {
				res.T90 = sim.Time(i+1)*cfg.BinWidth - cfg.RestoreAt
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
