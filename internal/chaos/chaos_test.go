package chaos

import (
	"path/filepath"
	"reflect"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/sim"
)

// TestLinkEnumerationMatchesSpec pins the contract FaultSpec indices
// rely on: linkCount/switchCount/hostCount predict exactly what
// buildFabric materializes, for every topology kind.
func TestLinkEnumerationMatchesSpec(t *testing.T) {
	specs := []TopologySpec{
		{Kind: TopoStar, N: 6, Gbps: 40},
		{Kind: TopoMultiBottleneck},
		{Kind: TopoFatTree, Cores: 2, Edges: 3, HostsPerEdge: 4, Gbps: 40},
	}
	for _, ts := range specs {
		sc := Scenario{Seed: 1, Protocol: "RoCC", Topology: ts, DurationNs: int64(sim.Millisecond)}
		fab := sc.buildFabric(sim.New())
		if got, want := len(fab.hosts), ts.hostCount(); got != want {
			t.Errorf("%s: hosts = %d, want %d", ts.Kind, got, want)
		}
		if got, want := len(fab.links), ts.linkCount(); got != want {
			t.Errorf("%s: links = %d, want %d", ts.Kind, got, want)
		}
		if got, want := len(fab.net.Switches()), ts.switchCount(); got != want {
			t.Errorf("%s: switches = %d, want %d", ts.Kind, got, want)
		}
		for i, l := range fab.links {
			if l[0].PeerNode.Ports()[l[0].PeerPort] != l[1] {
				t.Errorf("%s: link %d endpoints are not peers", ts.Kind, i)
			}
		}
	}
}

// TestGenerateDeterministic: one seed, one scenario — the replayability
// contract everything else builds on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(seed, GenOptions{})
		b := Generate(seed, GenOptions{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
	}
}

// TestRunDeterministic: replaying a scenario — faults and all — yields
// an identical verdict and identical counters.
func TestRunDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sc := Generate(seed, GenOptions{})
		a, errA := Run(sc, RunOptions{})
		b, errB := Run(sc, RunOptions{})
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: run errors %v / %v", seed, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Run not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestCleanScenariosTripNoInvariant is the monitor-calibration gate: on
// fault-free scenarios no invariant may trip, for any protocol the repo
// wires. A failure here is a miscalibrated monitor (or a real bug), not
// chaos.
func TestCleanScenariosTripNoInvariant(t *testing.T) {
	gen := GenOptions{FaultScale: -1, MaxDuration: 5 * sim.Millisecond}
	for _, p := range experiments.AllProtocols() {
		for seed := int64(0); seed < 3; seed++ {
			sc := Generate(seed, gen)
			sc.Protocol = string(p)
			if len(sc.Faults) != 0 {
				t.Fatalf("FaultScale<0 still generated faults: %+v", sc.Faults)
			}
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", p, seed, err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("%s seed %d (%s): clean run tripped %+v",
					p, seed, sc.Topology.Kind, res.Violations)
			}
		}
	}
}

// plantedScenario misconfigures PFC the canonical way: the pause
// threshold sits above the total buffer, so Xoff can never fire before
// the fabric tail-drops — a direct lossless_drops violation. 16
// persistent sources guarantee standing congestion at the star hub.
func plantedScenario() Scenario {
	sc := Scenario{
		Seed:              7,
		Protocol:          "RoCC",
		Topology:          TopologySpec{Kind: TopoStar, N: 8, Gbps: 10},
		DurationNs:        int64(3 * sim.Millisecond),
		PFCThresholdBytes: 500 * 1000,
		BufferBytes:       32 * 1000,
	}
	for i := 0; i < 16; i++ {
		sc.Flows = append(sc.Flows, FlowSpec{Src: i % 8, Dst: 8, SizeBytes: -1})
	}
	return sc
}

// TestPlantedViolationCaughtAndShrunk is the acceptance scenario: the
// planted misconfiguration is caught by the monitors, the shrinker cuts
// the repro to a fraction of the original scenario, and the minimized
// config replays the same violation from disk.
func TestPlantedViolationCaughtAndShrunk(t *testing.T) {
	sc := plantedScenario()
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated(InvLosslessDrops) {
		t.Fatalf("planted PFC misconfiguration not caught: %+v", res.Violations)
	}

	sr := Shrink(sc, InvLosslessDrops, RunOptions{}, 200)
	if !sr.Reproduced {
		t.Fatal("shrinker could not reproduce the violation")
	}
	origSize := len(sc.Flows) * max(1, len(sc.Faults))
	minSize := len(sr.Minimized.Flows) * max(1, len(sr.Minimized.Faults))
	if minSize*4 > origSize {
		t.Errorf("minimized to %d flow×fault events, want <= 25%% of %d", minSize, origSize)
	}

	// The emitted repro must be self-contained: save, load, replay.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := sr.Minimized.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(loaded, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(loaded, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Violated(InvLosslessDrops) {
		t.Fatalf("minimized repro does not reproduce: %+v", r1.Violations)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("minimized repro not deterministic:\n%+v\n%+v", r1, r2)
	}
}

// coOccurringFaultsScenario runs two DCQCN flows through a star under
// one fault of every non-kill kind.
func coOccurringFaultsScenario() Scenario {
	ms := int64(sim.Millisecond)
	return Scenario{
		Seed:       11,
		Protocol:   "DCQCN",
		Topology:   TopologySpec{Kind: TopoStar, N: 4, Gbps: 10},
		DurationNs: 6 * ms,
		Flows: []FlowSpec{
			{Src: 0, Dst: 4, SizeBytes: -1},
			{Src: 1, Dst: 4, SizeBytes: -1},
		},
		Faults: []FaultSpec{
			{Kind: FaultLink, Link: 0, Scope: ScopeData, Drop: 0.02},
			{Kind: FaultCNPLoss, Switch: 0, Prob: 0.2},
			{Kind: FaultFlap, Link: 1, PeriodNs: ms, ActiveNs: ms / 5},
			{Kind: FaultLink, Link: 2, Scope: ScopeCNP, Drop: 0.1},
			{Kind: FaultCPStall, Switch: 0, PeriodNs: ms, ActiveNs: ms / 4},
		},
	}
}

// TestShrinkerIsolatesCoOccurringFaults plants a synthetic invariant
// that only trips when a link flap AND a CP stall both occur, buries
// those two faults among decoys, and asserts the shrinker isolates
// exactly the co-occurring pair.
func TestShrinkerIsolatesCoOccurringFaults(t *testing.T) {
	sc := coOccurringFaultsScenario()
	const inv = "flap_and_stall"
	opts := RunOptions{Custom: []CustomMonitor{{
		Name: inv,
		Final: func(rt *Runtime) (string, bool) {
			if rt.Injector == nil {
				return "", false
			}
			s := rt.Injector.Stats()
			if s.Flaps > 0 && s.StallWindows > 0 {
				return "flap and CP stall co-occurred", true
			}
			return "", false
		},
	}}}

	sr := Shrink(sc, inv, opts, 300)
	if !sr.Reproduced {
		t.Fatal("synthetic co-occurrence invariant did not trip on the original")
	}
	if len(sr.Minimized.Faults) != 2 {
		t.Fatalf("minimized to %d faults, want exactly the co-occurring 2: %+v",
			len(sr.Minimized.Faults), sr.Minimized.Faults)
	}
	kinds := map[string]bool{}
	for _, f := range sr.Minimized.Faults {
		kinds[f.Kind] = true
	}
	if !kinds[FaultFlap] || !kinds[FaultCPStall] {
		t.Fatalf("minimized faults are %+v, want {flap, cpstall}", sr.Minimized.Faults)
	}

	// The minimized scenario replays the violation deterministically.
	r1, err := Run(sr.Minimized, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sr.Minimized, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Violated(inv) || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("minimized co-occurrence repro unstable: %+v vs %+v", r1, r2)
	}
}

// TestSoakDeterministicAcrossWorkers: the verdict sequence depends only
// on the campaign seed, never on worker count or completion order.
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	opts := SoakOptions{Seed: 100, Count: 6}
	opts.Workers = 1
	a := Soak(opts)
	opts.Workers = 4
	b := Soak(opts)
	if !reflect.DeepEqual(a.Verdicts, b.Verdicts) {
		t.Fatalf("soak verdicts depend on worker count:\n%+v\n%+v", a.Verdicts, b.Verdicts)
	}
	if a.Scenarios != 6 || len(a.Verdicts) != 6 {
		t.Fatalf("soak ran %d scenarios, %d verdicts; want 6", a.Scenarios, len(a.Verdicts))
	}
	for i, v := range a.Verdicts {
		if v.Index != i || v.Seed != opts.Seed+int64(i) {
			t.Fatalf("verdict %d has index %d seed %d", i, v.Index, v.Seed)
		}
	}
}

// TestSoakEmitsRepro: a campaign seeded to hit the planted violation
// writes a minimized config plus Chrome trace, and the config replays.
func TestSoakEmitsRepro(t *testing.T) {
	dir := t.TempDir()
	// A tiny campaign over clean generated scenarios won't fail; instead
	// exercise the repro path directly through writeRepro on a planted
	// failure, the same call Soak makes.
	sc := plantedScenario()
	sr := Shrink(sc, InvLosslessDrops, RunOptions{}, 100)
	if !sr.Reproduced {
		t.Fatal("planted violation did not reproduce")
	}
	r := Repro{Seed: sc.Seed, Invariant: InvLosslessDrops, Shrink: sr}
	if err := writeRepro(&r, dir, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(r.ConfigPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(loaded, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated(InvLosslessDrops) {
		t.Fatalf("emitted repro config does not reproduce: %+v", res.Violations)
	}
	if r.TracePath == "" {
		t.Fatal("no trace written")
	}
}
