package chaos

import (
	"reflect"
	"testing"

	"rocc/internal/adversary"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// TestRogueOverlayLeavesBaseStreamIntact: RogueProb must be a pure
// overlay — enabling the adversarial dimension never perturbs the
// scenario a seed has always generated. When the salted coin lands it
// may only mark flows rogue (making them persistent and uncapped),
// force their reliability where another overlay would have, and set
// Defended.
func TestRogueOverlayLeavesBaseStreamIntact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		base := Generate(seed, GenOptions{})
		rogued := Generate(seed, GenOptions{RogueProb: 0.5})

		if !rogued.Defended {
			// The salted coin said no: the scenario must be untouched.
			if rogued.RogueCount() != 0 {
				t.Fatalf("seed %d: rogues without Defended", seed)
			}
			if !reflect.DeepEqual(base, rogued) {
				t.Fatalf("seed %d: no rogues drawn but scenario differs:\n%+v\n%+v",
					seed, base, rogued)
			}
			continue
		}
		if rogued.RogueCount() == 0 {
			t.Fatalf("seed %d: Defended without rogues", seed)
		}
		if !reflect.DeepEqual(base.Topology, rogued.Topology) ||
			base.DurationNs != rogued.DurationNs ||
			base.Protocol != rogued.Protocol ||
			base.Mode != rogued.Mode ||
			!reflect.DeepEqual(base.Faults, rogued.Faults) {
			t.Fatalf("seed %d: rogue overlay changed more than the flows", seed)
		}
		if len(base.Flows) != len(rogued.Flows) {
			t.Fatalf("seed %d: rogue overlay changed the flow count", seed)
		}
		if rogued.Flows[0].Rogue != "" {
			t.Fatalf("seed %d: flow 0 marked rogue (no victim survives by construction)", seed)
		}
		for i := range base.Flows {
			b, m := base.Flows[i], rogued.Flows[i]
			if m.Rogue == "" {
				if !reflect.DeepEqual(b, m) {
					t.Fatalf("seed %d flow %d: honest flow perturbed:\n%+v\n%+v", seed, i, b, m)
				}
				continue
			}
			if _, err := adversary.ParseRogueKind(m.Rogue); err != nil {
				t.Fatalf("seed %d flow %d: %v", seed, i, err)
			}
			if m.SizeBytes != -1 || m.MaxRateMbps != 0 {
				t.Fatalf("seed %d flow %d: rogue not persistent+uncapped: %+v", seed, i, m)
			}
			// Everything but the sanctioned mutations matches the base draw.
			b.SizeBytes, b.MaxRateMbps, b.Reliable, b.Rogue = m.SizeBytes, m.MaxRateMbps, m.Reliable, m.Rogue
			if !reflect.DeepEqual(b, m) {
				t.Fatalf("seed %d flow %d: rogue overlay changed more than sanctioned:\n%+v\n%+v",
					seed, i, base.Flows[i], m)
			}
		}
		if err := rogued.Validate(); err != nil {
			t.Fatalf("seed %d: rogued scenario invalid: %v", seed, err)
		}
	}
}

// TestRogueOverlayDeterministic: same seed, same options, same rogues —
// and a forced draw marks every eligible scenario.
func TestRogueOverlayDeterministic(t *testing.T) {
	sawKind := map[string]bool{}
	for seed := int64(0); seed < 30; seed++ {
		a := Generate(seed, GenOptions{RogueProb: 1})
		b := Generate(seed, GenOptions{RogueProb: 1})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: rogue overlay not deterministic", seed)
		}
		if !a.Defended || a.RogueCount() == 0 {
			t.Fatalf("seed %d: RogueProb=1 drew no rogues (mode %q, %d flows)",
				seed, a.Mode, len(a.Flows))
		}
		for i := range a.Flows {
			if a.Flows[i].Rogue != "" {
				sawKind[a.Flows[i].Rogue] = true
			}
		}
	}
	for _, k := range adversary.RogueKinds() {
		if !sawKind[string(k)] {
			t.Errorf("30 forced seeds never drew rogue kind %q", k)
		}
	}
}

// TestRogueOverlaySkipsPFCOnly: with no controller running there is
// nothing for a rogue to subvert — PFC-only scenarios stay rogue-free
// even at RogueProb 1, and Validate rejects the combination outright.
func TestRogueOverlaySkipsPFCOnly(t *testing.T) {
	sawPFC := false
	for seed := int64(0); seed < 60; seed++ {
		sc := Generate(seed, GenOptions{ModeProb: 1, RogueProb: 1})
		if sc.Mode != netsim.ModePFCOnly.String() {
			continue
		}
		sawPFC = true
		if sc.RogueCount() != 0 || sc.Defended {
			t.Fatalf("seed %d: PFC-only scenario drew rogues", seed)
		}
	}
	if !sawPFC {
		t.Fatal("60 moded seeds never drew PFC-only")
	}

	sc := Scenario{
		Seed:       1,
		Protocol:   "RoCC",
		Topology:   TopologySpec{Kind: TopoStar, N: 2, Gbps: 40},
		DurationNs: int64(2 * sim.Millisecond),
		Mode:       netsim.ModePFCOnly.String(),
		Flows: []FlowSpec{
			{Src: 0, Dst: 2, SizeBytes: -1},
			{Src: 1, Dst: 2, SizeBytes: -1, Rogue: string(adversary.RogueBlast)},
		},
	}
	if err := sc.Validate(); err == nil {
		t.Fatal("Validate accepted a rogue flow in PFC-only mode")
	}
	sc.Mode = ""
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate rejected a hybrid rogue scenario: %v", err)
	}
	sc.Flows[1].Rogue = "omniscient"
	if err := sc.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown rogue kind")
	}
}

// containedRogueScenario is a defended RoCC star where three honest
// flows share the hub with a blaster and a CNP-deaf rogue.
func containedRogueScenario() Scenario {
	sc := Scenario{
		Seed:       21,
		Protocol:   "RoCC",
		Topology:   TopologySpec{Kind: TopoStar, N: 5, Gbps: 10},
		DurationNs: int64(6 * sim.Millisecond),
		Defended:   true,
	}
	for i := 0; i < 3; i++ {
		sc.Flows = append(sc.Flows, FlowSpec{Src: i, Dst: 5, SizeBytes: -1, MaxRateMbps: 10000})
	}
	sc.Flows = append(sc.Flows,
		FlowSpec{Src: 3, Dst: 5, SizeBytes: -1, Rogue: string(adversary.RogueBlast)},
		FlowSpec{Src: 4, Dst: 5, SizeBytes: -1, Rogue: string(adversary.RogueCNPDeaf)},
	)
	return sc
}

// TestRogueScenarioContained is the fixed-scenario end-to-end check: a
// defended star with blasting rogues quarantines them, keeps the
// victims delivering, and trips no invariant.
func TestRogueScenarioContained(t *testing.T) {
	res, err := Run(containedRogueScenario(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("defended rogue scenario tripped %+v", res.Violations)
	}
	if res.Quarantines == 0 {
		t.Error("no rogue was quarantined")
	}
	if res.PolicedDrops == 0 {
		t.Error("quarantined blasters took no policed drops")
	}
	if res.Drops != 0 {
		t.Errorf("%d tail drops in a lossless fabric (policed drops are %d and separate)",
			res.Drops, res.PolicedDrops)
	}
	if res.DeliveredBytes == 0 {
		t.Error("nothing delivered at all")
	}
}

// TestDefendedCleanIdentity pins the observer contract at the chaos
// level: on a fault-free scenario where nothing misbehaves, attaching
// the full defense stack (policers, watchdogs, hardened RoCC RPs) must
// not change the run — same verdicts, same delivery, same counters.
// Faulted scenarios are deliberately out of scope: a flow whose
// feedback the faults destroyed is non-compliant in exactly the way a
// rogue is, and the policer holds it to the advertised share regardless
// of why it stopped listening.
func TestDefendedCleanIdentity(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		sc := Generate(seed, GenOptions{FaultScale: -1, MaxDuration: 5 * sim.Millisecond})
		plain, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc.Defended = true
		defendedRes, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if defendedRes.Quarantines != 0 || defendedRes.PolicedDrops != 0 ||
			defendedRes.WatchdogTrips != 0 || defendedRes.WatchdogDrops != 0 {
			t.Fatalf("seed %d: defenses intervened on a clean fabric: %+v", seed, defendedRes)
		}
		// Zero the defense-only fields and the rest must match exactly.
		defendedRes.Quarantines, defendedRes.Releases = 0, 0
		if !reflect.DeepEqual(plain, defendedRes) {
			t.Fatalf("seed %d: defended run diverged from plain:\n%+v\n%+v", seed, plain, defendedRes)
		}
	}
}

// TestFairnessExcludesQuarantinedFlows is the regression for the
// fairness monitor's quarantine exclusion: force-quarantine 4 of 5
// honest persistent flows (Jain over all five would be ~0.2, under the
// 0.25 floor) and the fairness invariant must not trip, because policed
// flows are being deliberately starved and are outside the contract.
func TestFairnessExcludesQuarantinedFlows(t *testing.T) {
	sc := Scenario{
		Seed:       31,
		Protocol:   "RoCC",
		Topology:   TopologySpec{Kind: TopoStar, N: 5, Gbps: 10},
		DurationNs: int64(6 * sim.Millisecond),
		Defended:   true,
	}
	for i := 0; i < 5; i++ {
		sc.Flows = append(sc.Flows, FlowSpec{Src: i, Dst: 5, SizeBytes: -1, MaxRateMbps: 10000})
	}
	forced := false
	force := CustomMonitor{
		Name: "force_quarantine",
		Sample: func(rt *Runtime) (string, bool) {
			if forced || rt.Engine.Now() < 500*sim.Microsecond {
				return "", false
			}
			for i := 1; i < 5; i++ {
				if rt.Flows[i] == nil {
					return "", false
				}
			}
			for i := 1; i < 5; i++ {
				rt.Policers[0].ForceQuarantine(rt.Flows[i].ID, netsim.Mbps(1))
			}
			forced = true
			return "", false
		},
	}
	res, err := Run(sc, RunOptions{Custom: []CustomMonitor{force}})
	if err != nil {
		t.Fatal(err)
	}
	if !forced {
		t.Fatal("the forced-quarantine hook never fired")
	}
	if res.Violated(InvFairness) {
		t.Error("fairness tripped on deliberately starved (quarantined) flows")
	}
	if res.Violated(InvQuarantine) {
		t.Error("quarantine ledger tripped on forced quarantines")
	}
	if res.Quarantines != 4 {
		t.Errorf("Quarantines = %d, want 4 forced", res.Quarantines)
	}
	if len(res.Violations) != 0 {
		t.Errorf("forced-quarantine run tripped %+v", res.Violations)
	}
}

// TestRoguedSoakBatchClean is the acceptance gate for the adversarial
// dimension: a fixed-seed soak with every scenario rogue-laden (plus
// mixing, modes and kills in the pool) must come back with zero
// invariant failures.
func TestRoguedSoakBatchClean(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 30
	}
	rep := Soak(SoakOptions{
		Seed:  777,
		Count: count,
		Gen:   GenOptions{RogueProb: 1, ModeProb: 0.2, MixProb: 0.2, FailProb: 0.2},
	})
	if rep.Scenarios != count {
		t.Fatalf("ran %d scenarios, want %d", rep.Scenarios, count)
	}
	if rep.Rogued == 0 {
		t.Fatal("no scenario drew rogues at RogueProb=1")
	}
	for _, v := range rep.Verdicts {
		if v.Failed() {
			t.Errorf("seed %d (%s, %s, %s, %d rogues): %+v %s",
				v.Seed, v.ProtocolLabel(), v.Topology, v.ModeLabel(), v.Rogues,
				v.Result.Violations, v.Err)
		}
	}
}
