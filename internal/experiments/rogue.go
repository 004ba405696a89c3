package experiments

import (
	"rocc/internal/adversary"
	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
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

// The rogue star and its probe, fixed for every cell.
const (
	// RogueLinkGbps is every link's rate.
	RogueLinkGbps = 40

	// rogueProbeKB is the probe transfer size in KB. The probe starts
	// from the first victim host at Duration/2.
	rogueProbeKB = 100
)

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

	Seed int64
}

// Filled returns the configuration with all defaults applied.
func (c RogueConfig) Filled() RogueConfig {
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
	return c
}

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

// RogueWrap returns the interposer that turns a sender of protocol p
// into a rogue of kind k, blasting at blastRate when it blasts. The
// attack adapts to its host protocol: a rogue is deaf to the feedback
// channel its protocol actually listens on, so "CNP-deaf" degrades
// gracefully for protocols that never see a CNP. HPCC's feedback rides
// INT echoes on ACKs — blinding those is the equivalent evasion — and
// TIMELY's rides the RTT itself, which cannot be selectively ignored any
// cheaper than not listening at all, so its deaf rogue is a line-rate
// blaster. Explicitly requested kinds other than CNP-deaf are taken
// literally.
func RogueWrap(p Protocol, k adversary.RogueKind, blastRate netsim.Rate) func(netsim.FlowCC) netsim.FlowCC {
	if k == adversary.RogueCNPDeaf && p == ProtoHPCC {
		k = adversary.RogueECNBlind
	} else if k == adversary.RogueCNPDeaf && p == ProtoTIMELY {
		k = adversary.RogueBlast
	}
	return func(cc netsim.FlowCC) netsim.FlowCC { return adversary.WrapRogue(k, cc, blastRate) }
}

// RunRogue executes one rogue-containment cell.
func RunRogue(cfg RogueConfig) RogueResult {
	cfg = cfg.Filled()
	spec := RunSpec{Seed: cfg.Seed, RoCCRP: roccnet.RPOptions{StaleK: core.DefaultStaleK}}
	if cfg.Defended {
		// Default policer and watchdog: RoCC's congestion points advertise
		// the per-flow fair rate, which the policer holds flows to; other
		// protocols never told the switch anything, so it falls back to an
		// equal split.
		spec.Defenses = &Defenses{}
	}
	star := newStar(cfg.Protocol, cfg.Victims+cfg.Rogues, RogueLinkGbps, true, spec)

	victims := make([]*netsim.Flow, cfg.Victims)
	for i := range victims {
		victims[i] = star.start(i, 0)
	}
	rogues := make([]*netsim.Flow, cfg.Rogues)
	wrap := RogueWrap(cfg.Protocol, cfg.Kind, star.LinkRate)
	for i := range rogues {
		rogues[i] = star.StartFlow(cfg.Protocol, star.Sources[cfg.Victims+i], star.Dst, -1, 0, false, wrap)
	}

	// Second-half measurement window plus the FCT probe at its start.
	half := cfg.Duration / 2
	var snapV, snapR []int64
	var probe *netsim.Flow
	star.engine.At(half, func() {
		snapV, snapR = delivered(victims), delivered(rogues)
		probe = star.Mix.StartFlow(cfg.Protocol, star.Sources[0], star.Dst, rogueProbeKB*netsim.KB, 0)
	})

	star.engine.RunUntil(cfg.Duration)

	res := RogueResult{Config: cfg, ProbeFCT: -1}
	perVictim := windowGbps(delivered(victims), snapV, cfg.Duration-half)
	for _, g := range perVictim {
		res.VictimGbps += g
	}
	res.VictimGbps /= float64(len(victims))
	res.JainVictims = stats.JainIndex(perVictim)
	for _, g := range windowGbps(delivered(rogues), snapR, cfg.Duration-half) {
		res.RogueGbps += g
	}
	res.RogueGbps /= float64(len(rogues))
	if probe != nil && probe.Done() {
		res.ProbeFCT = probe.FCT()
	}

	for _, p := range star.Policers {
		res.Detections += p.Stats().Detections
		res.Releases += p.Stats().Releases
		res.Quarantined += p.CurrentQuarantined()
	}
	res.PolicedDrops = star.Net.PolicedDrops()
	for _, w := range star.Watchdogs {
		res.WatchdogTrips += w.Stats().Trips
	}
	for _, f := range victims {
		if cc, ok := f.CC.(*roccnet.FlowCC); ok {
			res.SpoofRejects += cc.RP().CNPsSpoofed + cc.Replays
		}
	}
	return res
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
