package collective

import (
	"rocc/internal/chaos"
	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
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

	Seed int64
}

// Filled returns the configuration with all defaults applied.
func (c ExpConfig) Filled() ExpConfig {
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
	return c
}

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
	cfg = cfg.Filled()
	engine := sim.New()

	// Two edges, ranks split across them so every ring/tree/ps hop
	// crosses the oversubscribed core — the collective stresses the
	// fabric, not just host NICs.
	ranks := cfg.Collective.Ranks()
	ft := topology.BuildFatTree(engine, cfg.Seed, topology.SmallFatTree(2, 2, (ranks+1)/2, 40))
	net := ft.Net
	// In PFC-only mode the assembly wires no congestion control and flows
	// run without a controller: PFC is the brake.
	run := experiments.Assemble(experiments.RunSpec{Net: net, FatTree: ft, Seed: cfg.Seed, Mode: cfg.Mode,
		RoCCRP: roccnet.RPOptions{StaleK: core.DefaultStaleK}, Protocols: []experiments.Protocol{cfg.Protocol}})

	hosts := make([]*netsim.Host, ranks)
	for r := 0; r < ranks; r++ {
		hosts[r] = ft.Hosts[r%2][r/2]
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
			return run.StartFlow(cfg.Protocol, hosts[t.From], hosts[t.To], t.Bytes, 0, reliable, nil)
		},
	}
	runner.Begin(net)

	if cfg.Kill == KillLink {
		a := ft.EdgeUp[0]
		b := a.PeerNode.Ports()[a.PeerPort]
		run.Injector().KillLink(a, b, cfg.FailAt, cfg.RestoreAt)
	}

	// Deadlock probe: a pause-wait cycle never drains, so the moment one
	// appears the cell's fate is sealed — stop and report it instead of
	// simulating pause frames until the deadline.
	deadlock := ""
	engine.NewTicker(sim.Millisecond, func() {
		if cycle := chaos.PauseWaitCycle(net.Switches()); cycle != "" {
			deadlock = cycle
			engine.Stop()
		}
	})
	// Stop the engine as soon as the collective completes; no idle tail.
	engine.NewTicker(100*sim.Microsecond, func() {
		if runner.Done() {
			engine.Stop()
		}
	})

	engine.RunUntil(cfg.Deadline)

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
