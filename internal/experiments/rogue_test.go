package experiments

import (
	"testing"

	"rocc/internal/adversary"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// shortRogue keeps test cells cheap: 4 ms, 3+K senders on a 40G star.
func shortRogue(p Protocol, k int, defended bool) RogueConfig {
	return RogueConfig{
		Protocol: p,
		Rogues:   k,
		Defended: defended,
		Victims:  3,
		Duration: 4 * sim.Millisecond,
		Seed:     1,
	}
}

// TestRogueWrapConformance: every protocol's controller survives being
// wrapped — the wrapper forwards the contract faithfully, and a
// CNP-deaf wrap means feedback cannot move the wrapped rate.
func TestRogueWrapConformance(t *testing.T) {
	for _, p := range AllProtocols() {
		engine := sim.New()
		star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
		mix := NewMix(star.Net, 0)
		mix.Activate(p)
		cc := mix.Ops(p).NewFlowCC(star.Net, star.Sources[0])
		r := adversary.WrapRogue(adversary.RogueCNPDeaf, cc, 0)
		before := r.CurrentRate()
		cnp := &netsim.Packet{Kind: netsim.KindCNP, Size: netsim.CNPBytes}
		info := cnp.EnsureCNP()
		info.RateUnits = 1 // 10 Mb/s — would collapse an honest RoCC RP
		r.OnCNP(0, cnp)
		r.OnCNP(0, cnp)
		if got := r.CurrentRate(); got != before {
			t.Errorf("%s: CNP moved a CNP-deaf rogue's rate: %v → %v", p, before, got)
		}
		if name := r.CCProtocol(); name != "rogue-cnpdeaf" {
			t.Errorf("%s: wrapped protocol name = %q", p, name)
		}
		if st, ok := interface{}(r).(interface{ Stop() }); ok {
			st.Stop()
		}
	}
}

// TestRogueDefenseQuarantinesAndRecovers: under defended RoCC, the
// policer finds the CNP-deaf rogues and the victims keep real goodput.
func TestRogueDefenseQuarantinesAndRecovers(t *testing.T) {
	r := RunRogue(shortRogue(ProtoRoCC, 2, true))
	if r.Detections < 2 {
		t.Errorf("detected %d of 2 rogues", r.Detections)
	}
	if r.Quarantined != r.Detections-r.Releases {
		t.Errorf("quarantine accounting: %d != %d - %d", r.Quarantined, r.Detections, r.Releases)
	}
	if r.PolicedDrops == 0 {
		t.Error("no policed drops despite quarantined blasters")
	}
	if r.VictimGbps <= 0 {
		t.Error("victims starved even with the defense up")
	}
	if r.ProbeFCT < 0 {
		t.Error("probe never completed under the defense")
	}
}

// TestRogueContainmentHeadline is the acceptance criterion: defended
// RoCC victims keep at least twice the goodput of the best undefended
// end-host scheme under K=4 CNP-deaf rogues.
func TestRogueContainmentHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol sweep")
	}
	rocc := RunRogue(shortRogue(ProtoRoCC, 4, true))
	best := 0.0
	bestProto := Protocol("")
	for _, p := range AllProtocols() {
		if p == ProtoRoCC {
			continue
		}
		r := RunRogue(shortRogue(p, 4, false))
		if r.VictimGbps > best {
			best = r.VictimGbps
			bestProto = p
		}
	}
	if rocc.VictimGbps < 2*best {
		t.Errorf("defended RoCC victims at %.2f Gb/s, best undefended end-host (%s) at %.2f — want ≥2×",
			rocc.VictimGbps, bestProto, best)
	}
}

// TestRogueUndefendedIdentity: Defended=false must leave the fabric
// untouched — no defense counters, no policed or watchdog drops.
func TestRogueUndefendedIdentity(t *testing.T) {
	r := RunRogue(shortRogue(ProtoDCQCN, 1, false))
	if r.Detections != 0 || r.PolicedDrops != 0 || r.WatchdogTrips != 0 || r.SpoofRejects != 0 {
		t.Errorf("undefended run shows defense activity: %+v", r)
	}
}

// TestRogueCellsCoverTheMatrix: protocols × K × defense.
func TestRogueCellsCoverTheMatrix(t *testing.T) {
	cells := RogueCells(RogueConfig{Seed: 7})
	want := len(AllProtocols()) * 3 * 2
	if len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := string(c.Protocol) + string(rune('0'+c.Rogues))
		if c.Defended {
			key += "+d"
		}
		if seen[key] {
			t.Fatalf("duplicate cell %q", key)
		}
		seen[key] = true
		if c.Seed != 7 {
			t.Error("base config not inherited")
		}
	}
}
