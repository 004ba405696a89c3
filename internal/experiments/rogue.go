package experiments

import (
	"rocc/internal/adversary"
	"rocc/internal/core"
	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
)

// Rogue containment benchmark: honest flows of one protocol share a
// star bottleneck with K rogue senders that run the same protocol but
// ignore its feedback (CNP-deaf, ECN-blind, or a raw blaster). Each
// cell runs defended (switch-side compliance policer + PFC storm
// watchdog + RoCC's forged-feedback hardening) or undefended, and
// reports what the victims kept: goodput, fairness among themselves,
// and the flow-completion time of a probe transfer. The headline the
// sweep exists to produce: a switch-driven scheme can police because it
// knows the rate it advertised; pure end-host schemes have nothing to
// hold a rogue to, so their victims collapse.

// RogueConfig parameterizes one rogue-containment cell.
type RogueConfig struct {
	Protocol Protocol
	Rogues   int                 // K rogue senders (default 4)
	Kind     adversary.RogueKind // rogue behaviour (default CNP-deaf)
	Defended bool                // policer + watchdog + RP hardening

	// Victims is the honest sender count (default 4).
	Victims int

	// Duration is the run length (default 8 ms); goodput is measured
	// over the second half, after detection and convergence.
	Duration sim.Time

	// ProbeKB is the probe transfer size in KB (default 100). The probe
	// starts from the first victim host at Duration/2.
	ProbeKB int

	// LinkRate is every link's rate (default 40 Gb/s).
	LinkRate netsim.Rate

	Seed int64
}

func (c RogueConfig) fill() RogueConfig {
	if c.Rogues == 0 {
		c.Rogues = 4
	}
	if c.Kind == "" {
		c.Kind = adversary.RogueCNPDeaf
	}
	if c.Victims == 0 {
		c.Victims = 4
	}
	if c.Duration == 0 {
		c.Duration = 8 * sim.Millisecond
	}
	if c.ProbeKB == 0 {
		c.ProbeKB = 100
	}
	if c.LinkRate == 0 {
		c.LinkRate = netsim.Gbps(40)
	}
	return c
}

// Filled returns the configuration with all defaults applied.
func (c RogueConfig) Filled() RogueConfig { return c.fill() }

// RogueResult is one protocol × K × defense cell.
type RogueResult struct {
	Config RogueConfig

	// Per-victim mean goodput over the second half, and fairness across
	// the victims only (rogues excluded by construction).
	VictimGbps  float64
	RogueGbps   float64 // per-rogue mean over the same window
	JainVictims float64

	// ProbeFCT is the mid-run probe's completion time; -1 if it never
	// finished (a starved victim path).
	ProbeFCT sim.Time

	// Defense activity (zero when undefended).
	Detections    int
	Releases      int
	Quarantined   int // still quarantined at the end
	PolicedDrops  int
	WatchdogTrips int
	SpoofRejects  int // forged/replayed CNPs the hardened RPs refused
}

// EffectiveRogueKind adapts the attack to its host protocol: a rogue is
// deaf to the feedback channel its protocol actually listens on, so
// "CNP-deaf" degrades gracefully for protocols that never see a CNP.
// HPCC's feedback rides INT echoes on ACKs — blinding those is the
// equivalent evasion — and TIMELY's rides the RTT itself, which cannot
// be selectively ignored any cheaper than not listening at all, so its
// deaf rogue is a line-rate blaster. Explicitly requested kinds other
// than CNP-deaf are taken literally.
func EffectiveRogueKind(p Protocol, k adversary.RogueKind) adversary.RogueKind {
	if k != adversary.RogueCNPDeaf {
		return k
	}
	switch p {
	case ProtoHPCC:
		return adversary.RogueECNBlind
	case ProtoTIMELY:
		return adversary.RogueBlast
	default:
		return k
	}
}

// RunRogue executes one rogue-containment cell.
func RunRogue(cfg RogueConfig) RogueResult {
	cfg = cfg.fill()
	engine := sim.New()
	n := cfg.Victims + cfg.Rogues
	star := topology.BuildStar(engine, cfg.Seed, n, cfg.LinkRate)
	net := star.Net

	mix := NewMix(net, 0)
	mix.RoCCRP.StaleK = core.DefaultStaleK
	if cfg.Defended {
		// The end-host half of the defense: reject CNPs from off-path
		// congestion points and stale (replayed) feedback.
		mix.RoCCRP.VerifyCPPath = true
		mix.RoCCRP.MaxCNPAge = 250 * sim.Microsecond
	}
	mix.Activate(cfg.Protocol)
	mix.EnableAllSwitchPorts()
	mix.AttachReceivers()

	var policer *adversary.Policer
	var watchdog *adversary.Watchdog
	if cfg.Defended {
		policer = adversary.NewPolicer(net, star.Switch, adversary.PolicerConfig{
			// RoCC's congestion points advertise the per-flow fair rate;
			// the policer holds flows to exactly what the switch promised.
			// Other protocols never told the switch anything, so the hook
			// reports nothing and the policer falls back to equal split.
			AdvertisedRate: func(port *netsim.Port) (netsim.Rate, bool) {
				if cp := mix.CPs[port]; cp != nil {
					return netsim.Mbps(cp.FairRateMbps()), true
				}
				return 0, false
			},
		})
		watchdog = adversary.NewWatchdog(net, star.Switch, adversary.WatchdogConfig{})
	}

	victims := make([]*netsim.Flow, cfg.Victims)
	for i := range victims {
		victims[i] = mix.StartFlow(cfg.Protocol, star.Sources[i], star.Dst, -1, 0)
	}
	rogues := make([]*netsim.Flow, cfg.Rogues)
	kind := EffectiveRogueKind(cfg.Protocol, cfg.Kind)
	wrap := func(cc netsim.FlowCC) netsim.FlowCC {
		return adversary.WrapRogue(kind, cc, cfg.LinkRate)
	}
	for i := range rogues {
		rogues[i] = mix.StartWrappedFlow(cfg.Protocol, star.Sources[cfg.Victims+i],
			star.Dst, -1, 0, false, wrap)
	}

	// Second-half measurement window plus the FCT probe at its start.
	half := cfg.Duration / 2
	snapV := make([]int64, len(victims))
	snapR := make([]int64, len(rogues))
	var probe *netsim.Flow
	engine.At(half, func() {
		for i, f := range victims {
			snapV[i] = f.DeliveredBytes()
		}
		for i, f := range rogues {
			snapR[i] = f.DeliveredBytes()
		}
		probe = mix.StartFlow(cfg.Protocol, star.Sources[0], star.Dst,
			int64(cfg.ProbeKB)*netsim.KB, 0)
	})

	engine.RunUntil(cfg.Duration)

	res := RogueResult{Config: cfg, ProbeFCT: -1}
	window := (cfg.Duration - half).Seconds()
	perVictim := make([]float64, len(victims))
	for i, f := range victims {
		perVictim[i] = float64(f.DeliveredBytes()-snapV[i]) * 8 / window / 1e9
		res.VictimGbps += perVictim[i]
	}
	res.VictimGbps /= float64(len(victims))
	res.JainVictims = stats.JainIndex(perVictim)
	for i, f := range rogues {
		res.RogueGbps += float64(f.DeliveredBytes()-snapR[i]) * 8 / window / 1e9
	}
	res.RogueGbps /= float64(len(rogues))
	if probe != nil && probe.Done() {
		res.ProbeFCT = probe.FCT()
	}

	if policer != nil {
		st := policer.Stats()
		res.Detections = st.Detections
		res.Releases = st.Releases
		res.Quarantined = policer.CurrentQuarantined()
		res.PolicedDrops = net.PolicedDrops()
		policer.Stop()
	}
	if watchdog != nil {
		res.WatchdogTrips = watchdog.Stats().Trips
		watchdog.Stop()
	}
	for _, f := range victims {
		if cc, ok := f.CC.(*roccnet.FlowCC); ok {
			res.SpoofRejects += cc.RP().CNPsSpoofed + cc.Replays
		}
	}

	for _, f := range victims {
		f.Stop()
	}
	for _, f := range rogues {
		f.Stop()
	}
	return res
}

// RunRogueGrid runs rogue cells across workers; cell i uses cfgs[i] and
// lands at out[i] regardless of completion order.
func RunRogueGrid(cfgs []RogueConfig, workers int) []harness.Result[RogueResult] {
	return harness.Run(len(cfgs), harness.Options{Workers: workers}, func(i int) (RogueResult, error) {
		return RunRogue(cfgs[i]), nil
	})
}

// RogueCells builds the full sweep: every protocol × K ∈ {1, 2, 4}
// rogues × defense off/on, on the shared base configuration.
func RogueCells(base RogueConfig) []RogueConfig {
	var cells []RogueConfig
	for _, p := range AllProtocols() {
		for _, k := range []int{1, 2, 4} {
			for _, defended := range []bool{false, true} {
				c := base
				c.Protocol = p
				c.Rogues = k
				c.Defended = defended
				cells = append(cells, c)
			}
		}
	}
	return cells
}
