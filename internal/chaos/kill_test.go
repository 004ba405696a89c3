package chaos

import (
	"reflect"
	"strings"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// TestKillOverlayLeavesBaseStreamIntact: FailProb must be a pure
// overlay — the base scenario (flows, topology, non-flap faults,
// durations) comes from the same RNG stream whether or not kills are
// enabled, so enabling failures never perturbs what a seed means.
func TestKillOverlayLeavesBaseStreamIntact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		base := Generate(seed, GenOptions{})
		killed := Generate(seed, GenOptions{FailProb: 0.5})

		hasKill := false
		for _, f := range killed.Faults {
			if f.Kind == FaultLinkKill || f.Kind == FaultSwitchKill {
				hasKill = true
			}
		}
		if !hasKill {
			// The salted coin said no: the scenario must be untouched.
			if !reflect.DeepEqual(base, killed) {
				t.Fatalf("seed %d: no kill drawn but scenario differs:\n%+v\n%+v",
					seed, base, killed)
			}
			continue
		}
		// Kill drawn: same topology, same flow placement; only the fault
		// list (flaps stripped, one kill appended) and reliability of
		// persistent flows may differ.
		if !reflect.DeepEqual(base.Topology, killed.Topology) {
			t.Fatalf("seed %d: kill overlay changed the topology", seed)
		}
		if base.DurationNs != killed.DurationNs || base.Protocol != killed.Protocol {
			t.Fatalf("seed %d: kill overlay changed duration or protocol", seed)
		}
		if len(base.Flows) != len(killed.Flows) {
			t.Fatalf("seed %d: kill overlay changed the flow count", seed)
		}
		for i := range base.Flows {
			b, k := base.Flows[i], killed.Flows[i]
			if b.SizeBytes == -1 {
				b.Reliable = true // the one sanctioned mutation
			}
			if !reflect.DeepEqual(b, k) {
				t.Fatalf("seed %d flow %d: overlay changed more than reliability:\n%+v\n%+v",
					seed, i, b, k)
			}
		}
		for _, f := range killed.Faults {
			if f.Kind == FaultFlap {
				t.Fatalf("seed %d: flap survived alongside a kill", seed)
			}
		}
		if err := killed.Validate(); err != nil {
			t.Fatalf("seed %d: kill scenario invalid: %v", seed, err)
		}
	}
}

func TestKillOverlayDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(seed, GenOptions{FailProb: 1})
		b := Generate(seed, GenOptions{FailProb: 1})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: kill overlay not deterministic", seed)
		}
	}
}

func killScenario(kind string, at, restore int64) Scenario {
	sc := Scenario{
		Seed:       1,
		Protocol:   "RoCC",
		Topology:   TopologySpec{Kind: TopoStar, N: 4, Gbps: 40},
		DurationNs: int64(4 * sim.Millisecond),
		Flows: []FlowSpec{
			{Src: 0, Dst: 4, SizeBytes: -1, MaxRateMbps: 10000, Reliable: true},
		},
		Faults: []FaultSpec{{Kind: kind, AtNs: at, RestoreNs: restore}},
	}
	return sc
}

func TestValidateRejectsBadKills(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no restore", func(sc *Scenario) { sc.Faults[0].RestoreNs = 0 }, "restore"},
		{"restore past end", func(sc *Scenario) { sc.Faults[0].RestoreNs = sc.DurationNs + 1 }, "restore"},
		{"link out of range", func(sc *Scenario) { sc.Faults[0].Kind = FaultLinkKill; sc.Faults[0].Link = 99 }, "link"},
		{"switch out of range", func(sc *Scenario) { sc.Faults[0].Switch = 99 }, "switch"},
		{"second kill", func(sc *Scenario) {
			sc.Faults = append(sc.Faults, FaultSpec{Kind: FaultLinkKill, Link: 0, AtNs: 100, RestoreNs: 200})
		}, "second topology kill"},
		{"kill plus flap", func(sc *Scenario) {
			sc.Faults = append(sc.Faults, FaultSpec{Kind: FaultFlap, Link: 0, PeriodNs: 100000, ActiveNs: 50000})
		}, "flap"},
	}
	for _, tc := range cases {
		sc := killScenario(FaultSwitchKill, int64(sim.Millisecond), int64(2*sim.Millisecond))
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	good := killScenario(FaultSwitchKill, int64(sim.Millisecond), int64(2*sim.Millisecond))
	if err := good.Validate(); err != nil {
		t.Errorf("valid kill scenario rejected: %v", err)
	}
}

// fatTreeKillScenario kills core switch 0 of a small HPCC fat-tree for
// 1 ms under two cross-edge flows.
func fatTreeKillScenario() Scenario {
	return Scenario{
		Seed:       2,
		Protocol:   "HPCC",
		Topology:   TopologySpec{Kind: TopoFatTree, Cores: 2, Edges: 3, HostsPerEdge: 2, Gbps: 40},
		DurationNs: int64(5 * sim.Millisecond),
		Flows: []FlowSpec{
			{Src: 0, Dst: 3, SizeBytes: -1, MaxRateMbps: 8000, Reliable: true},
			{Src: 1, Dst: 5, SizeBytes: -1, MaxRateMbps: 8000, Reliable: true},
		},
		Faults: []FaultSpec{{Kind: FaultSwitchKill, Switch: 0, AtNs: int64(sim.Millisecond), RestoreNs: int64(2 * sim.Millisecond)}},
	}
}

// TestKillScenariosRecover: hand-built link- and switch-kill scenarios
// across topologies must come out of Run with zero violations — the
// blackhole, recovery, and stale-pause invariants all armed.
func TestKillScenariosRecover(t *testing.T) {
	scenarios := []Scenario{
		killScenario(FaultSwitchKill, int64(sim.Millisecond), int64(2*sim.Millisecond)),
		func() Scenario {
			sc := killScenario(FaultLinkKill, int64(sim.Millisecond), int64(2*sim.Millisecond))
			sc.Faults[0].Link = 0 // source 0's access link, on the flow's path
			return sc
		}(),
		fatTreeKillScenario(),
	}
	for i, sc := range scenarios {
		res, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if len(res.Violations) > 0 {
			t.Errorf("scenario %d (%s %s): violations %+v",
				i, sc.Protocol, sc.Faults[0].Kind, res.Violations)
		}
		if res.DeliveredBytes == 0 {
			t.Errorf("scenario %d delivered nothing", i)
		}
		if res.FaultStats.LinkKills+res.FaultStats.SwitchKills != 1 {
			t.Errorf("scenario %d: kill never executed (stats %+v)", i, res.FaultStats)
		}
		if res.FaultStats.Restores != 1 {
			t.Errorf("scenario %d: restore never executed", i)
		}
	}
}

// TestRecoveryCheckersHaveTeeth drives the final checkers directly with
// a synthetic recovery snapshot: a wedged flow, a still-failed switch,
// and post-reconvergence blackholes must each trip their invariant.
func TestRecoveryCheckersHaveTeeth(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	net.Connect(sw, b, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1})
	engine.RunUntil(sim.Millisecond)
	f.Stop()
	engine.RunUntil(2 * sim.Millisecond)

	rt := &Runtime{Net: net, Flows: []*netsim.Flow{f}}
	rt.recoverSet = true
	rt.liveAtRecovery = true

	// Bytes froze at the snapshot value: recovery must trip.
	rt.recoverBytes = f.DeliveredBytes()
	if _, bad := checkRecovery(rt); !bad {
		t.Error("checkRecovery passed a flow that delivered nothing after restore")
	}
	// Bytes grew past the snapshot: recovery must pass.
	rt.recoverBytes = f.DeliveredBytes() - 1
	if detail, bad := checkRecovery(rt); bad {
		t.Errorf("checkRecovery tripped on a recovered flow: %s", detail)
	}

	// Whole fabric: blackhole check passes.
	rt.blackholeAtRecovery = net.BlackholeDrops()
	if detail, bad := checkBlackhole(rt); bad {
		t.Errorf("checkBlackhole tripped on a whole fabric: %s", detail)
	}
	// A switch that never came back must trip it.
	net.FailSwitch(sw)
	if _, bad := checkBlackhole(rt); !bad {
		t.Error("checkBlackhole passed with a failed switch")
	}
	// Snapshot gating: without a snapshot neither checker may fire.
	rt.recoverSet = false
	if _, bad := checkBlackhole(rt); bad {
		t.Error("checkBlackhole fired without a recovery snapshot")
	}
	if _, bad := checkRecovery(rt); bad {
		t.Error("checkRecovery fired without a recovery snapshot")
	}
}

// TestShrinkPreservesKillRepro plants a synthetic invariant that needs
// the switch kill to have executed, pads the scenario with decoy faults
// and flows, and asserts the shrinker keeps the kill, sheds the rest,
// and never shortens the run below the restore time.
func TestShrinkPreservesKillRepro(t *testing.T) {
	sc := killScenario(FaultSwitchKill, int64(sim.Millisecond), int64(2*sim.Millisecond))
	sc.Topology.N = 6
	sc.Flows = append(sc.Flows,
		FlowSpec{Src: 1, Dst: 6, SizeBytes: 20000, StartNs: 0},
		FlowSpec{Src: 2, Dst: 6, SizeBytes: 20000, StartNs: 1000},
	)
	sc.Faults = append(sc.Faults,
		FaultSpec{Kind: FaultLink, Link: 1, Scope: ScopeData, Drop: 0.02},
		FaultSpec{Kind: FaultCNPLoss, Switch: 0, Prob: 0.2},
	)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	const inv = "kill_executed"
	opts := RunOptions{Custom: []CustomMonitor{{
		Name: inv,
		Final: func(rt *Runtime) (string, bool) {
			if rt.Injector == nil {
				return "", false
			}
			if s := rt.Injector.Stats(); s.SwitchKills > 0 {
				return "switch kill executed", true
			}
			return "", false
		},
	}}}

	sr := Shrink(sc, inv, opts, 300)
	if !sr.Reproduced {
		t.Fatal("kill invariant did not trip on the original")
	}
	m := sr.Minimized
	if len(m.Faults) != 1 || m.Faults[0].Kind != FaultSwitchKill {
		t.Fatalf("minimized faults = %+v, want just the switch kill", m.Faults)
	}
	if len(m.Flows) != 0 {
		t.Errorf("shrinker kept %d decoy flows", len(m.Flows))
	}
	if m.DurationNs < m.Faults[0].RestoreNs {
		t.Errorf("duration %d shrunk below the restore at %d",
			m.DurationNs, m.Faults[0].RestoreNs)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("minimized kill scenario invalid: %v", err)
	}
	res, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated(inv) {
		t.Error("minimized scenario does not replay the kill")
	}
}
