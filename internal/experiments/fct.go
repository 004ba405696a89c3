package experiments

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

// BufferMode selects the switch buffering regime of §6.3.
type BufferMode int

// Buffer regimes.
const (
	// Lossless: PFC enabled, effectively unlimited buffer (the paper's
	// default; PFC prevents drops).
	Lossless BufferMode = iota
	// Unlimited: PFC disabled, unlimited buffer (Fig. 18).
	Unlimited
	// Lossy: PFC disabled, buffer capped at 3× the PFC threshold,
	// go-back-N recovery (App. A.2, Fig. 20).
	Lossy
)

func (m BufferMode) String() string {
	switch m {
	case Lossless:
		return "lossless"
	case Unlimited:
		return "unlimited"
	case Lossy:
		return "lossy"
	}
	return "unknown"
}

// FCTConfig parameterizes a large-scale fat-tree run (§6.3): every host
// behind the first two edges sends Poisson flows to random hosts behind
// the third edge.
type FCTConfig struct {
	Protocol Protocol
	Workload *workload.CDF
	Load     float64 // average offered load on host links (0.5, 0.7)
	Mode     BufferMode
	FatTree  topology.FatTreeConfig
	Duration sim.Time // flows starting in its first sixth (warm-up) are not recorded
	Seed     int64

	// Shards cuts the fabric pod-aligned onto that many engine shards
	// (clamped to the edge count; the zero value means one). Fixed seeds
	// produce byte-identical results at every shard count.
	Shards int

	// IncastFanIn, when > 1, groups arrivals into synchronized incasts:
	// each arrival event starts FanIn flows from distinct random senders
	// to one random sink (the shuffle pattern of map-reduce traffic).
	// The aggregate offered load is unchanged — the per-event arrival
	// rate is divided by FanIn.
	IncastFanIn int
}

// DefaultLoad is the §6.3 runs' offered load when FCTConfig.Load is 0.
const DefaultLoad = 0.7

func (c *FCTConfig) fill() {
	if c.Workload == nil {
		c.Workload = workload.WebSearch()
	}
	if c.Load == 0 {
		c.Load = DefaultLoad
	}
	if c.FatTree.Cores == 0 {
		c.FatTree = topology.PaperFatTree()
	}
	if c.Duration == 0 {
		c.Duration = 30 * sim.Millisecond
	}
}

// TierStats aggregates queue occupancy and PFC counts per CP tier, as
// Fig. 17 reports.
type TierStats struct {
	AvgQueueKB float64
	PFCFrames  int
}

// FCTResult is the outcome of one large-scale run.
type FCTResult struct {
	Config      FCTConfig
	FCT         *stats.FCTRecorder
	Bins        []stats.BinStat
	RateMean    float64 // Table 3: per-flow average rate, Mb/s
	RateStd     float64
	Core        TierStats // Fig. 17 tiers
	IngressEdge TierStats
	EgressEdge  TierStats
	MaxBufferKB float64 // peak shared-buffer use across switches
	AvgBufferKB float64 // time-average of the most-loaded switch's buffer (Fig. 18)
	Drops       int
	RetxBytes   int64
	TotalBytes  int64
	FlowsDone   int
}

// RunFCT executes one §6.3 fat-tree experiment.
func RunFCT(cfg FCTConfig) FCTResult {
	res, _ := runFCT(cfg)
	return res
}

// runFCT is RunFCT, also returning the network the run left behind: its
// arrivals stopped, its flows still in flight.
func runFCT(cfg FCTConfig) (FCTResult, *netsim.Network) {
	cfg.fill()
	engine := sim.New()
	ft := topology.BuildFatTree(engine, cfg.Seed, cfg.FatTree)
	spec := RunSpec{Net: ft.Net, FatTree: ft, Shards: cfg.Shards,
		BaseRTT: 16 * sim.Microsecond, Protocols: []Protocol{cfg.Protocol}}
	switch cfg.Mode {
	case Lossy:
		spec.Mode = netsim.ModeCCOnlyLossy
	case Unlimited:
		// Fig. 18's regime: the CC-only mode with the buffer cap removed.
		spec.Mode, spec.BufferBytes = netsim.ModeCCOnlyLossy, -1
	}
	run := Assemble(spec)

	rec := &stats.FCTRecorder{}
	warmupSec := (cfg.Duration / 6).Seconds()
	ft.Net.OnFlowDone = func(f *netsim.Flow) {
		if f.StartTime.Seconds() < warmupSec {
			return
		}
		rec.Record(int(f.Size), f.FCT().Seconds())
	}

	// Traffic: hosts behind edges 0..n-2 send to hosts behind the last
	// edge, per §6.3. The load level is defined against the bottleneck
	// tier — the egress edge's aggregate uplink capacity (with 2:1
	// oversubscription the core-to-egress-edge path saturates first) —
	// so 70% load produces persistent congestion at the core CPs without
	// collapsing the fabric, matching Fig. 17a's observation that
	// congestion concentrates at the core tier.
	lastEdge := len(ft.Hosts) - 1
	sinks := ft.Hosts[lastEdge]
	rand := ft.Net.Rand.Split()
	uplinkCapacity := float64(ft.CoreRate) * float64(cfg.FatTree.Cores*cfg.FatTree.LinksPerPair)
	senders := (len(ft.Hosts) - 1) * cfg.FatTree.HostsPerEdge
	lambda := workload.ArrivalRate(cfg.Workload, uplinkCapacity/float64(senders), cfg.Load)
	start := func(src, dst *netsim.Host, size int) {
		run.StartFlow(cfg.Protocol, src, dst, int64(size), 0, cfg.Mode == Lossy, nil)
	}
	var gens []*workload.Poisson
	if cfg.IncastFanIn > 1 {
		// One network-wide arrival process; each event is a synchronized
		// fan-in of IncastFanIn flows into one sink.
		fan := cfg.IncastFanIn
		if fan > senders {
			fan = senders
		}
		var allSenders []*netsim.Host
		for e := 0; e < lastEdge; e++ {
			allSenders = append(allSenders, ft.Hosts[e]...)
		}
		eventRate := lambda * float64(senders) / float64(fan)
		gens = append(gens, workload.NewPoisson(engine, rand.Split(), cfg.Workload, eventRate,
			func(size int) {
				dst := sinks[rand.Intn(len(sinks))]
				perm := rand.Perm(len(allSenders))
				for i := 0; i < fan; i++ {
					sz := size
					if i > 0 {
						sz = cfg.Workload.Sample(rand)
					}
					start(allSenders[perm[i]], dst, sz)
				}
			}))
	} else {
		for e := 0; e < lastEdge; e++ {
			for _, src := range ft.Hosts[e] {
				src := src
				gens = append(gens, workload.NewPoisson(engine, rand.Split(), cfg.Workload, lambda,
					func(size int) {
						dst := sinks[rand.Intn(len(sinks))]
						start(src, dst, size)
					}))
			}
		}
	}

	// Queue sampling per tier.
	sampler := NewSampler(engine, 200*sim.Microsecond)
	coreQ := sampler.Value("core", func() float64 { return meanQueueKB(ft.CorePorts) })
	bufSeries := sampler.Value("buffer", func() float64 {
		max := 0
		for _, sw := range ft.Net.Switches() {
			if b := sw.BufferUsed(); b > max {
				max = b
			}
		}
		return float64(max) / float64(netsim.KB)
	})
	upQ := sampler.Value("ingress", func() float64 { return meanQueueKB(ft.EdgeUp) })
	downQ := sampler.Value("egress", func() float64 { return meanQueueKB(ft.EdgeDown) })

	engine.RunUntil(cfg.Duration)
	for _, g := range gens {
		g.Stop()
	}

	res := FCTResult{
		Config:    cfg,
		FCT:       rec,
		Bins:      rec.BinBySize(cfg.Workload.Bins()),
		FlowsDone: len(rec.Samples),
		Drops:     ft.Net.TotalDrops(),
	}
	res.RateMean, res.RateStd = rec.RateStats()
	res.Core = TierStats{AvgQueueKB: coreQ.MeanAfter(warmupSec), PFCFrames: sumPFC(ft.Cores)}
	// Edge switches host both ingress (uplink) and egress (downlink) CPs;
	// queue averages are split by port direction, pause frames by switch
	// role relative to the sinks: the last edge is the egress edge.
	res.IngressEdge = TierStats{AvgQueueKB: upQ.MeanAfter(warmupSec)}
	res.EgressEdge = TierStats{AvgQueueKB: downQ.MeanAfter(warmupSec)}
	for i, sw := range ft.Edges {
		if i == len(ft.Edges)-1 {
			res.EgressEdge.PFCFrames += sw.PauseFrames
		} else {
			res.IngressEdge.PFCFrames += sw.PauseFrames
		}
	}
	maxBuf := 0
	for _, sw := range ft.Net.Switches() {
		if sw.MaxBufferUsed > maxBuf {
			maxBuf = sw.MaxBufferUsed
		}
	}
	res.MaxBufferKB = float64(maxBuf) / float64(netsim.KB)
	res.AvgBufferKB = bufSeries.MeanAfter(warmupSec)
	for _, hosts := range ft.Hosts {
		for _, h := range hosts {
			res.TotalBytes += int64(h.RxDataBytes)
		}
	}
	res.RetxBytes = ft.Net.RetxBytesTotal
	return res, ft.Net
}

// meanQueueKB averages the backlog over the tier's ports that currently
// hold a queue. Idle ports are excluded so the statistic reflects the
// depth a congestion point operates at (Fig. 17a), not a dilution over
// dozens of idle ports.
func meanQueueKB(ports []*netsim.Port) float64 {
	total, busy := 0, 0
	for _, p := range ports {
		if q := p.DataQueueBytes(); q > 0 {
			total += q
			busy++
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(total) / float64(busy) / float64(netsim.KB)
}

func sumPFC(switches []*netsim.Switch) int {
	n := 0
	for _, s := range switches {
		n += s.PauseFrames
	}
	return n
}
