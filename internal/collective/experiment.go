package collective

import (
	"rocc/internal/chaos"
	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
)

// Kill kinds for ExpConfig.Kill.
const (
	KillNone = "none" // clean fabric
	KillLink = "link" // one edge→core uplink dies mid-run and restores
)

// ExpConfig parameterizes one collective cell: a collective on a
// two-edge fat-tree under one protocol and one operating mode.
type ExpConfig struct {
	Collective Config
	Protocol   experiments.Protocol
	Mode       netsim.OperatingMode

	// Kill optionally fails EdgeUp[0] at FailAt and restores it at
	// RestoreAt — the "does the allreduce survive a link kill" probe.
	Kill      string
	FailAt    sim.Time
	RestoreAt sim.Time

	// Deadline bounds the run; a collective still pending at the
	// deadline is reported stalled (deadlock or collapse), not an error.
	Deadline sim.Time

	// HostRate is the edge link speed (default 40 Gb/s); uplinks are 2:1
	// oversubscribed like the recovery benchmark.
	HostRate netsim.Rate

	Seed int64
}

func (c ExpConfig) fill() ExpConfig {
	c.Collective = c.Collective.Filled()
	if c.Protocol == "" {
		c.Protocol = experiments.ProtoRoCC
	}
	if c.Kill == "" {
		c.Kill = KillNone
	}
	if c.FailAt == 0 {
		c.FailAt = 2 * sim.Millisecond
	}
	if c.RestoreAt == 0 {
		c.RestoreAt = 4 * sim.Millisecond
	}
	if c.Deadline == 0 {
		c.Deadline = 200 * sim.Millisecond
	}
	if c.HostRate == 0 {
		c.HostRate = netsim.Gbps(40)
	}
	return c
}

// Filled returns the configuration with all defaults applied.
func (c ExpConfig) Filled() ExpConfig { return c.fill() }

// ExpResult is one protocol × mode cell.
type ExpResult struct {
	Config ExpConfig
	Run    Result

	// Iteration completion-time percentiles in nanoseconds, exact over
	// the per-iteration samples (not histogram buckets).
	IterP50 float64
	IterP95 float64
	IterP99 float64

	// StragglerP99 is the p99 straggler spread across steps, ns.
	StragglerP99 float64

	// Deadlock holds the pause-wait cycle if the probe tripped (the run
	// is also stopped and reported stalled).
	Deadlock string

	Drops     int
	PFCFrames int
	RetxBytes int64

	// Metrics is the run's telemetry snapshot (histograms
	// collective.iter_ns / step_ns / straggler_ns) for CSV export.
	Metrics telemetry.Snapshot
}

// Stalled reports whether the collective failed to finish.
func (r ExpResult) Stalled() bool { return r.Run.Stalled }

// RunExp executes one collective cell.
func RunExp(cfg ExpConfig) ExpResult {
	cfg = cfg.fill()
	engine := sim.New()

	// Two edges, ranks split across them so every ring/tree/ps hop
	// crosses the oversubscribed core — the collective stresses the
	// fabric, not just host NICs.
	ranks := cfg.Collective.Ranks()
	hostsPerEdge := (ranks + 1) / 2
	up := float64(hostsPerEdge) * cfg.HostRate.Gbps() / 2
	ft := topology.BuildFatTree(engine, cfg.Seed, topology.FatTreeConfig{
		Cores:        2,
		Edges:        2,
		HostsPerEdge: hostsPerEdge,
		LinksPerPair: 1,
		HostRate:     cfg.HostRate,
		CoreRate:     netsim.Gbps(up / 2),
	})
	net := ft.Net
	cfg.Mode.Apply(net.Switches())

	hosts := make([]*netsim.Host, ranks)
	for r := 0; r < ranks; r++ {
		hosts[r] = ft.Hosts[r%2][r/2]
	}

	// CC wiring only when the mode runs congestion control; in PFC-only
	// mode flows get the default NoCC controller and PFC is the brake.
	var mix *experiments.Mix
	if cfg.Mode.CCEnabled() {
		mix = experiments.NewMix(net, 0)
		mix.RoCCRP.StaleK = core.DefaultStaleK
		mix.Activate(cfg.Protocol)
		mix.EnableAllSwitchPorts()
		mix.AttachReceivers(net.Hosts()...)
	}

	// Lossy fabrics drop; a collective transfer must deliver every byte,
	// so it rides go-back-N there (and during kills, where in-flight
	// packets blackhole).
	reliable := !cfg.Mode.Lossless() || cfg.Kill != KillNone

	reg := telemetry.New()
	runner := &Runner{
		Cfg: cfg.Collective,
		Reg: reg,
		Start: func(t Transfer) *netsim.Flow {
			src, dst := hosts[t.From], hosts[t.To]
			if mix != nil {
				return mix.StartWrappedFlow(cfg.Protocol, src, dst, t.Bytes, 0, reliable, nil)
			}
			return net.StartFlow(src, dst, netsim.FlowConfig{Size: t.Bytes, Reliable: reliable})
		},
	}
	runner.Begin(net)

	if cfg.Kill == KillLink {
		inj := faults.New(net, cfg.Seed+0x5eed)
		a := ft.EdgeUp[0]
		b := a.PeerNode.Ports()[a.PeerPort]
		inj.KillLink(a, b, cfg.FailAt, cfg.RestoreAt)
	}

	// Deadlock probe: a pause-wait cycle never drains, so the moment one
	// appears the cell's fate is sealed — stop and report it instead of
	// simulating pause frames until the deadline.
	deadlock := ""
	probe := engine.NewTicker(sim.Millisecond, func() {
		if cycle := chaos.PauseWaitCycle(net.Switches()); cycle != "" {
			deadlock = cycle
			engine.Stop()
		}
	})
	// Stop the engine as soon as the collective completes; no idle tail.
	finish := engine.NewTicker(100*sim.Microsecond, func() {
		if runner.Done() {
			engine.Stop()
		}
	})

	engine.RunUntil(cfg.Deadline)
	probe.Stop()
	finish.Stop()

	res := ExpResult{
		Config:    cfg,
		Run:       runner.Result(),
		Deadlock:  deadlock,
		Drops:     net.TotalDrops(),
		PFCFrames: net.TotalPFCFrames(),
		RetxBytes: net.RetxBytesTotal,
		Metrics:   reg.Snapshot(),
	}
	if n := len(res.Run.IterDurations); n > 0 {
		xs := make([]float64, n)
		for i, d := range res.Run.IterDurations {
			xs[i] = float64(d)
		}
		res.IterP50 = stats.Percentile(xs, 50)
		res.IterP95 = stats.Percentile(xs, 95)
		res.IterP99 = stats.Percentile(xs, 99)
	}
	if n := len(res.Run.Steps); n > 0 {
		xs := make([]float64, n)
		for i, s := range res.Run.Steps {
			xs[i] = float64(s.Straggler)
		}
		res.StragglerP99 = stats.Percentile(xs, 99)
	}
	return res
}

// Cells builds the headline sweep: every protocol × each of modes on
// the shared base configuration, protocol-major.
func Cells(base ExpConfig, modes []netsim.OperatingMode) []ExpConfig {
	var cells []ExpConfig
	for _, p := range experiments.AllProtocols() {
		for _, m := range modes {
			c := base
			c.Protocol = p
			c.Mode = m
			cells = append(cells, c)
		}
	}
	return cells
}
