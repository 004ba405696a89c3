package chaos

import (
	"rocc/internal/adversary"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/workload"
)

// GenOptions bounds the scenario generator. The zero value selects
// defaults sized so a single scenario simulates in well under a second.
type GenOptions struct {
	// FaultScale scales how many faults a scenario gets (at most
	// maxFaults): 0 selects the default mix (1); any negative value
	// generates clean scenarios — the invariant-baseline mode in which no
	// monitor may ever trip.
	FaultScale float64

	// MaxDuration caps the scenario length, drawn from minDuration up.
	// Values below minDuration select the default, 10 ms.
	MaxDuration sim.Time

	// MixProb is the probability a scenario mixes a second protocol into
	// the fabric, reassigning a random subset of its flows (the
	// incremental-rollout scenario class). Zero disables mixing; 1 makes
	// every scenario attempt it. The mix overlay draws from its own
	// derived RNG stream, so a given (seed, options) pair generates the
	// same base scenario whether or not mixing is enabled.
	MixProb float64

	// FailProb is the probability a scenario carries a topology kill — a
	// hard link or switch failure that reroutes and later restores. Like
	// the mix overlay it draws from its own salted RNG stream, so turning
	// failures on never perturbs the base scenario a seed generates. A
	// kill replaces any flap faults the base drew (link-state ownership
	// is exclusive; Validate rejects the combination).
	FailProb float64

	// ModeProb is the probability a scenario runs in a non-default
	// operating mode (PFC-only or CC-only lossy, drawn evenly). It too
	// draws from its own salted RNG stream: the base scenario a seed
	// generates is byte-identical whether or not the mode dimension is
	// enabled.
	ModeProb float64

	// RogueProb is the probability a scenario hosts rogue senders —
	// flows whose controllers ignore their protocol's feedback (CNP-deaf,
	// ECN-blind, or raw blasters) — with the switch-side defenses
	// (compliance policer, PFC storm watchdog, RoCC forged-feedback
	// hardening) attached to contain them. Like every other dimension it
	// draws from its own salted RNG stream, so rogue-free seeds stay
	// byte-identical with the dimension off.
	RogueProb float64
}

// The generator's fixed bounds: a scenario runs for at least
// minDuration and carries minFlows to maxFlows flows (incast bursts can
// add a few past maxFlows) and at most maxFaults faults.
const (
	minDuration        = 4 * sim.Millisecond
	minFlows, maxFlows = 2, 16
	maxFaults          = 6
)

func (o GenOptions) withDefaults() GenOptions {
	if o.FaultScale == 0 {
		o.FaultScale = 1
	}
	if o.MaxDuration < minDuration {
		o.MaxDuration = minDuration + 6*sim.Millisecond
	}
	return o
}

// Generate derives a complete scenario from one seed. Every draw comes
// from a single sequential stream, so the same (seed, options) pair
// always yields the same scenario — the replayability contract the
// shrinker and the soak verdict log depend on.
func Generate(seed int64, opts GenOptions) Scenario {
	o := opts.withDefaults()
	r := sim.NewRand(seed)

	// Every protocol the repo wires: the invariants must hold for the
	// baselines too, not just RoCC.
	protocols := experiments.AllProtocols()
	sc := Scenario{
		Seed:     seed,
		Protocol: string(protocols[r.Intn(len(protocols))]),
	}
	topologies := [...]string{TopoStar, TopoMultiBottleneck, TopoFatTree}
	sc.Topology = genTopology(r, topologies[r.Intn(len(topologies))])
	dur := minDuration + sim.Time(r.Float64()*float64(o.MaxDuration-minDuration))
	sc.DurationNs = int64(dur)

	sc.Flows = genFlows(r, sc.Topology, dur)
	if o.FaultScale > 0 {
		sc.Faults = genFaults(r, sc.Topology, dur, o)
	}
	mixProtocols(seed, o, protocols, &sc)
	overlayKill(seed, o, &sc)
	overlayMode(seed, o, &sc)
	overlayRogue(seed, o, &sc)
	return sc
}

// mixSeedSalt decorrelates the protocol-mix overlay from the base
// scenario stream: mixing must not perturb the topology, flows or faults
// a seed has always generated (the replayability contract the shrinker
// and the calibration tests pin).
const mixSeedSalt = 0x6d69780a // "mix\n"

// mixProtocols overlays a second protocol onto a random subset of the
// scenario's flows with probability MixProb, from its own derived RNG
// stream. Each reassigned flow carries its protocol explicitly, so the
// shrinker minimizes mixed scenarios like any other.
func mixProtocols(seed int64, o GenOptions, protocols []experiments.Protocol, sc *Scenario) {
	if o.MixProb <= 0 {
		return
	}
	r := sim.NewRand(seed ^ mixSeedSalt)
	if r.Float64() >= o.MixProb {
		return
	}
	var others []experiments.Protocol
	for _, p := range protocols {
		if string(p) != sc.Protocol {
			others = append(others, p)
		}
	}
	if len(others) == 0 || len(sc.Flows) < 2 {
		return
	}
	second := others[r.Intn(len(others))]
	// Reassign each flow with p=1/2, but force at least one flow onto
	// each protocol so a "mixed" scenario always is one.
	sc.Flows[0].Protocol = ""
	sc.Flows[len(sc.Flows)-1].Protocol = string(second)
	for i := 1; i < len(sc.Flows)-1; i++ {
		if r.Intn(2) == 1 {
			sc.Flows[i].Protocol = string(second)
		}
	}
}

// killSeedSalt decorrelates the topology-kill overlay from both the base
// stream and the mix overlay, for the same replayability reason.
const killSeedSalt = 0x6b696c6c // "kill"

// overlayKill adds one hard topology failure (link or switch kill with a
// scheduled restore) with probability FailProb, from its own derived RNG
// stream. The kill lands between 0.2 and 0.4 of the run and restores
// 0.1-0.25 of the run later, so the fabric is whole well before the end
// — the recovery invariants need post-restore running time. Flap faults
// the base stream drew are dropped: a kill owns the fabric's link state
// for the run (Validate rejects the combination).
func overlayKill(seed int64, o GenOptions, sc *Scenario) {
	if o.FailProb <= 0 {
		return
	}
	r := sim.NewRand(seed ^ killSeedSalt)
	if r.Float64() >= o.FailProb {
		return
	}
	kept := sc.Faults[:0]
	for _, f := range sc.Faults {
		if f.Kind != FaultFlap {
			kept = append(kept, f)
		}
	}
	sc.Faults = kept
	// Persistent flows ride go-back-N in kill scenarios: a blackhole
	// window erases in-flight bytes, and over an unreliable transport a
	// window-based sender (HPCC, DCTCP) loses that window credit forever
	// — wedged by construction, not by a CC bug. RoCEv2 is a reliable
	// transport; the recovery invariant measures the control loop, so the
	// transport must be able to recover at all.
	for i := range sc.Flows {
		if sc.Flows[i].SizeBytes == -1 {
			sc.Flows[i].Reliable = true
		}
	}
	dur := float64(sc.DurationNs)
	at := int64((0.2 + float64(0.2*r.Float64())) * dur)
	restore := at + int64((0.1+float64(0.15*r.Float64()))*dur)
	f := FaultSpec{AtNs: at, RestoreNs: restore}
	if r.Intn(2) == 0 {
		f.Kind = FaultLinkKill
		f.Link = r.Intn(sc.Topology.linkCount())
	} else {
		f.Kind = FaultSwitchKill
		f.Switch = r.Intn(sc.Topology.switchCount())
	}
	sc.Faults = append(sc.Faults, f)
}

// modeSeedSalt decorrelates the operating-mode overlay from the base
// stream and the other overlays, keeping existing seeds byte-identical.
const modeSeedSalt = 0x6d6f6465 // "mode"

// overlayMode switches the scenario to a non-default loss discipline
// with probability ModeProb, drawn evenly between PFC-only and CC-only
// lossy. The mode is recorded in the scenario JSON, so a shrunk repro
// carries it like any other dimension.
func overlayMode(seed int64, o GenOptions, sc *Scenario) {
	if o.ModeProb <= 0 {
		return
	}
	r := sim.NewRand(seed ^ modeSeedSalt)
	if r.Float64() >= o.ModeProb {
		return
	}
	if r.Intn(2) == 0 {
		sc.Mode = netsim.ModePFCOnly.String()
		return
	}
	sc.Mode = netsim.ModeCCOnlyLossy.String()
	// A lossy fabric tail-drops; only go-back-N transfers can always
	// finish, and the conservation/completion invariants assume finite
	// flows do. Same forcing the kill overlay applies to persistent
	// flows, recorded explicitly in the JSON.
	for i := range sc.Flows {
		sc.Flows[i].Reliable = true
	}
}

// rogueSeedSalt decorrelates the rogue overlay from the base stream and
// the other overlays: enabling the adversarial dimension must not change
// the scenarios rogue-free seeds have always generated.
const rogueSeedSalt = 0x726f6775 // "rogu"

// overlayRogue marks 1-3 of the scenario's flows as rogue senders with
// probability RogueProb, from its own derived RNG stream, and turns the
// switch-side defenses on. Each rogue becomes a persistent, uncapped
// sender of a random misbehaviour kind; flow 0 is never marked, so at
// least one honest victim survives by construction (the victim-floor
// invariant needs a subject). The overlay runs last: it respects the
// reliability forcing the kill and lossy-mode overlays applied, and
// skips PFC-only scenarios outright — with no controller running there
// is nothing for a rogue to subvert.
func overlayRogue(seed int64, o GenOptions, sc *Scenario) {
	if o.RogueProb <= 0 {
		return
	}
	r := sim.NewRand(seed ^ rogueSeedSalt)
	if r.Float64() >= o.RogueProb {
		return
	}
	if sc.OperatingMode() == netsim.ModePFCOnly || len(sc.Flows) < 2 {
		return
	}
	forceReliable := sc.OperatingMode() == netsim.ModeCCOnlyLossy
	for _, f := range sc.Faults {
		if f.Kind == FaultLinkKill || f.Kind == FaultSwitchKill {
			// Kill scenarios force persistent flows onto go-back-N (see
			// overlayKill); a flow this overlay makes persistent follows.
			forceReliable = true
		}
	}
	n := 1 + r.Intn(min(len(sc.Flows)-1, 3))
	chosen := make(map[int]bool, n)
	for len(chosen) < n {
		chosen[1+r.Intn(len(sc.Flows)-1)] = true
	}
	kinds := adversary.RogueKinds()
	for i := 1; i < len(sc.Flows); i++ {
		if !chosen[i] {
			continue
		}
		f := &sc.Flows[i]
		f.Rogue = string(kinds[r.Intn(len(kinds))])
		f.SizeBytes = -1
		f.MaxRateMbps = 0
		if forceReliable {
			f.Reliable = true
		}
	}
	sc.Defended = true
}

func genTopology(r *sim.Rand, kind string) TopologySpec {
	switch kind {
	case TopoStar:
		rates := []float64{10, 40, 100}
		return TopologySpec{
			Kind: TopoStar,
			N:    4 + r.Intn(12),
			Gbps: rates[r.Intn(len(rates))],
		}
	case TopoMultiBottleneck:
		return TopologySpec{Kind: TopoMultiBottleneck}
	case TopoFatTree:
		return TopologySpec{
			Kind:         TopoFatTree,
			Cores:        2,
			Edges:        2 + r.Intn(2),
			HostsPerEdge: 3 + r.Intn(3),
			Gbps:         40,
		}
	}
	panic("chaos: unknown topology kind " + kind)
}

// pickPair draws a (src, dst) host pair obeying the topology's roles:
// star traffic converges on the hub destination, multibottleneck sends
// A0..A4+B5 toward B0..B4 (Fig. 10's flow direction), fat-tree traffic
// is any-to-any.
func pickPair(r *sim.Rand, t TopologySpec) (int, int) {
	switch t.Kind {
	case TopoStar:
		return r.Intn(t.N), t.N
	case TopoMultiBottleneck:
		return r.Intn(6), 6 + r.Intn(5)
	default:
		hosts := t.hostCount()
		src := r.Intn(hosts)
		dst := r.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		return src, dst
	}
}

func genFlows(r *sim.Rand, t TopologySpec, dur sim.Time) []FlowSpec {
	cdf := workload.WebSearch()
	if r.Intn(2) == 1 {
		cdf = workload.FBHadoop()
	}
	linkMbps := 40000.0
	if t.Gbps > 0 {
		linkMbps = t.Gbps * 1000
	}
	n := minFlows + r.Intn(maxFlows-minFlows+1)
	var flows []FlowSpec
	for i := 0; i < n; i++ {
		src, dst := pickPair(r, t)
		f := FlowSpec{Src: src, Dst: dst}
		if r.Float64() < 0.4 {
			// Persistent, rate-capped: the fairness-convergence subject.
			f.SizeBytes = -1
			f.MaxRateMbps = linkMbps * (0.5 + float64(0.5*r.Float64()))
			f.StartNs = int64(r.Float64() * 0.2 * float64(dur))
		} else {
			f.SizeBytes = int64(cdf.Sample(r))
			f.Reliable = r.Intn(4) == 0
			f.StartNs = int64(r.Float64() * 0.5 * float64(dur))
		}
		flows = append(flows, f)
	}
	if r.Float64() < 0.5 {
		// Incast burst: k sources hit one destination at the same
		// instant. Total burst volume is capped around 1 MB so the
		// resulting PFC pause wave drains well inside the run.
		_, dst := pickPair(r, t)
		k := 2 + r.Intn(6)
		size := int64(20*1000 + r.Intn(int(1000*1000/int64(k))))
		start := int64(r.Float64() * 0.5 * float64(dur))
		for i := 0; i < k; i++ {
			src := r.Intn(t.hostCount())
			for src == dst {
				src = r.Intn(t.hostCount())
			}
			if t.Kind == TopoStar && src == t.N {
				src = r.Intn(t.N)
			}
			flows = append(flows, FlowSpec{Src: src, Dst: dst, SizeBytes: size, StartNs: start})
		}
	}
	return flows
}

func genFaults(r *sim.Rand, t TopologySpec, dur sim.Time, o GenOptions) []FaultSpec {
	n := int(float64(r.Intn(maxFaults+1)) * o.FaultScale)
	if n > maxFaults {
		n = maxFaults
	}
	links, switches := t.linkCount(), t.switchCount()
	usedLink := make(map[int]bool)
	var fs []FaultSpec
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			li := r.Intn(links)
			if usedLink[li] {
				continue
			}
			usedLink[li] = true
			f := FaultSpec{Kind: FaultLink, Link: li}
			if r.Intn(2) == 0 {
				// Data-plane gremlins: mild loss and reordering. Heavy
				// data loss just measures the retransmit path, not the
				// control loop.
				f.Scope = ScopeData
				f.Drop = 0.05 * r.Float64()
				f.Reorder = 0.1 * r.Float64()
			} else {
				// Control-plane gremlins: CNPs are best-effort, so
				// push much harder on them.
				f.Scope = ScopeCNP
				f.Drop = 0.3 * r.Float64()
				f.Corrupt = 0.2 * r.Float64()
				f.Duplicate = 0.1 * r.Float64()
				f.Reorder = 0.2 * r.Float64()
			}
			fs = append(fs, f)
		case 1:
			period := sim.Millisecond + sim.Time(r.Float64()*float64(2*sim.Millisecond))
			fs = append(fs, FaultSpec{
				Kind:     FaultFlap,
				Link:     r.Intn(links),
				PeriodNs: int64(period),
				ActiveNs: int64(float64(period) * (0.1 + float64(0.15*r.Float64()))),
			})
		case 2:
			fs = append(fs, FaultSpec{
				Kind:   FaultCNPLoss,
				Switch: r.Intn(switches),
				Prob:   0.05 + float64(0.35*r.Float64()),
			})
		case 3:
			period := sim.Millisecond + sim.Time(r.Float64()*float64(2*sim.Millisecond))
			fs = append(fs, FaultSpec{
				Kind:     FaultCPStall,
				Switch:   r.Intn(switches),
				PeriodNs: int64(period),
				ActiveNs: int64(float64(period) * (0.2 + float64(0.25*r.Float64()))),
			})
		}
	}
	return fs
}
