package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/sim"
)

// linkRateScenario runs one flow across a star or a one-core fat-tree
// whose core links run at the host rate gbps.
func linkRateScenario(proto experiments.Protocol, kind string, gbps float64) Scenario {
	return Scenario{
		Seed:       1,
		Protocol:   string(proto),
		Topology:   TopologySpec{Kind: kind, N: 2, Gbps: gbps, Cores: 1, Edges: 2, HostsPerEdge: 2},
		DurationNs: int64(sim.Millisecond),
		Flows:      []FlowSpec{{Src: 0, Dst: 2, SizeBytes: 20_000}},
	}
}

// TestValidateRejectsBadLinkRates: a link rate no protocol can run, or
// one so fast a packet serializes in no time, is a Validate error, so
// Run returns it instead of panicking mid-build or never ending.
func TestValidateRejectsBadLinkRates(t *testing.T) {
	bad := []Scenario{
		linkRateScenario(experiments.ProtoRoCC, TopoStar, -1),
		linkRateScenario(experiments.ProtoRoCC, TopoStar, 1e-9),
		linkRateScenario(experiments.ProtoDCQCN, TopoStar, minLinkGbps*0.99),
		linkRateScenario(experiments.ProtoRoCC, TopoFatTree, -5),
		linkRateScenario(experiments.ProtoRoCC, TopoStar, 1e300),
		linkRateScenario(experiments.ProtoHPCC, TopoMultiBottleneck, -1),
	}
	// Host links are fast enough, but ten cores split an edge's two
	// 0.9 Gb/s hosts' worth of uplink at 2:1: 0.09 Gb/s per core link.
	ft := linkRateScenario(experiments.ProtoRoCC, TopoFatTree, 0.9)
	ft.Topology.Cores = 10
	bad = append(bad, ft)
	for _, sc := range bad {
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "link") {
			t.Errorf("%s %+v: Validate = %v, want a link-rate error", sc.Protocol, sc.Topology, err)
		}
		if _, err := Run(sc, RunOptions{}); err == nil {
			t.Errorf("%s %+v: Run accepted the scenario", sc.Protocol, sc.Topology)
		}
	}
}

// TestProtocolsRunAtMinLinkRate: every protocol runs a star and a
// fat-tree whose slowest link is exactly minLinkGbps.
func TestProtocolsRunAtMinLinkRate(t *testing.T) {
	for _, proto := range experiments.AllProtocols() {
		for _, kind := range []string{TopoStar, TopoFatTree} {
			sc := linkRateScenario(proto, kind, minLinkGbps)
			if _, err := Run(sc, RunOptions{}); err != nil {
				t.Errorf("%s %s at %v Gb/s: %v", proto, kind, minLinkGbps, err)
			}
		}
	}
}

// maxFuzzDuration is the longest scenario FuzzScenario runs.
const maxFuzzDuration = int64(2 * sim.Millisecond)

// FuzzScenario feeds repro configs through chaos.Load's decode and
// Validate into Run: whatever Validate accepts must run without a
// panic. Inputs above a small fabric, flow count and duration are
// skipped so that every run ends in milliseconds.
func FuzzScenario(f *testing.F) {
	for _, sc := range []Scenario{
		identityScenario(experiments.ProtoRoCC),
		plantedScenario(),
		containedRogueScenario(),
		fatTreeKillScenario(),
		killScenario(FaultLinkKill, int64(sim.Millisecond)/2, int64(sim.Millisecond)),
		linkRateScenario(experiments.ProtoDCQCN, TopoFatTree, minLinkGbps),
		linkRateScenario(experiments.ProtoRoCC, TopoStar, -1),
	} {
		sc.DurationNs = min(sc.DurationNs, maxFuzzDuration)
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		if json.Unmarshal(data, &sc) != nil {
			return
		}
		top := sc.Topology
		if sc.DurationNs > maxFuzzDuration || len(sc.Flows) > 8 || len(sc.Faults) > 4 ||
			top.N > 16 || top.Cores > 4 || top.Edges > 4 || top.HostsPerEdge > 4 {
			return
		}
		sc, err := decode(data)
		if err != nil {
			return
		}
		if _, err := Run(sc, RunOptions{}); err != nil {
			t.Fatalf("Run rejected a scenario Validate accepted: %v", err)
		}
	})
}
