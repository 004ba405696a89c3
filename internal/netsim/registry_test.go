package netsim

import (
	"slices"
	"testing"

	"rocc/internal/sim"
)

// liveFlows returns the registered flows by walking every ID ever issued.
func liveFlows(net *Network) []*Flow {
	var out []*Flow
	for id := FlowID(1); id <= net.nextFlow; id++ {
		if f := net.Flow(id); f != nil {
			if f.ID != id {
				panic("registry returned the wrong flow")
			}
			out = append(out, f)
		}
	}
	return out
}

func TestFlowRegistryUnknownIDs(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	if net.Flow(0) != nil || net.Flow(1) != nil || net.Flow(-1) != nil {
		t.Fatal("empty registry returned a flow")
	}
	f := net.StartFlow(a, b, FlowConfig{Size: 1000})
	g := net.StartFlow(a, b, FlowConfig{Size: -1})
	if net.Flow(f.ID) != f || net.Flow(g.ID) != g {
		t.Fatal("registered flows not addressable")
	}
	for _, id := range []FlowID{0, -1, g.ID + 1, g.ID + 1000, 1 << 62} {
		if net.Flow(id) != nil {
			t.Errorf("Flow(%d) = non-nil for an ID never issued", id)
		}
	}
	engine.RunUntil(sim.Millisecond)
	if !f.Done() || net.Flow(f.ID) != nil {
		t.Fatal("completed flow still registered after the grace period")
	}
	if net.Flow(g.ID) != g {
		t.Error("running flow lost when an earlier one was removed")
	}
	g.Stop()
	engine.RunUntil(2 * sim.Millisecond)
	if net.Flow(g.ID) != nil || net.ActiveFlowCount() != 0 {
		t.Error("stopped flow still registered")
	}
}

// TestFlowRegistryWindow churns short flows behind a long-lived one at
// the window's front, then without it: every live flow stays
// addressable, every removed one reads nil, ActiveFlowCount matches the
// live set, and once the front flow is gone the window stops growing.
// A completed flow is removed removeGrace after the coordinator replays
// its completion, which is when OnFlowDone runs.
func TestFlowRegistryWindow(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(100))
	long := net.StartFlow(a, b, FlowConfig{Size: -1})
	type done struct {
		id      FlowID
		removal sim.Time
	}
	var completed []done
	net.OnFlowDone = func(f *Flow) { completed = append(completed, done{f.ID, engine.Now() + removeGrace}) }
	removed := 0
	check := func(round int) {
		t.Helper()
		live := liveFlows(net)
		if len(live) != net.ActiveFlowCount() {
			t.Fatalf("round %d: ActiveFlowCount = %d, live set %d", round, net.ActiveFlowCount(), len(live))
		}
		for _, d := range completed {
			if d.removal <= engine.Now() {
				removed++
				if net.Flow(d.id) != nil {
					t.Fatalf("round %d: flow %d still addressable after its removal at %d", round, d.id, d.removal)
				}
			}
		}
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 25; i++ {
			net.StartFlow(a, b, FlowConfig{Size: 2 * MTUPayload})
		}
		engine.RunUntil(engine.Now() + 300*sim.Microsecond)
		if net.Flow(long.ID) != long {
			t.Fatalf("round %d: long-lived flow at the window's front lost", round)
		}
		check(round)
	}
	if removed == 0 {
		t.Fatal("no short flow was removed; the test exercises nothing")
	}

	long.Stop()
	peak := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 25; i++ {
			net.StartFlow(a, b, FlowConfig{Size: 2 * MTUPayload})
		}
		engine.RunUntil(engine.Now() + 300*sim.Microsecond)
		check(round)
		if round == 10 {
			peak = cap(net.flows)
		}
	}
	if net.Flow(long.ID) != nil {
		t.Error("stopped long-lived flow still registered")
	}
	if cap(net.flows) > peak {
		t.Errorf("registry window grew from %d to %d slots under steady churn", peak, cap(net.flows))
	}
}

// orderSpy is a RouteAware NoCC that logs its flow's ID on reroute.
type orderSpy struct {
	NoCC
	id  *FlowID
	log *[]FlowID
}

func (s orderSpy) OnReroute(sim.Time) { *s.log = append(*s.log, *s.id) }

func TestReconvergeNotifiesInFlowIDOrder(t *testing.T) {
	engine, net, src, dst, s0 := diamond()
	var log []FlowID
	var want []FlowID
	for i := 0; i < 12; i++ {
		id := new(FlowID)
		size := int64(-1)
		if i%3 == 1 {
			size = 1000 // completes and leaves the registry before the failure
		}
		f := net.StartFlow(src, dst, FlowConfig{Size: size, CC: orderSpy{id: id, log: &log}})
		*id = f.ID
		if size < 0 {
			want = append(want, f.ID)
		}
	}
	engine.RunUntil(400 * sim.Microsecond)
	if net.ActiveFlowCount() != len(want) {
		t.Fatalf("%d flows registered, want %d", net.ActiveFlowCount(), len(want))
	}
	net.FailLink(s0.ports[s0.routeTo(dst.ID())[0]])
	engine.RunUntil(sim.Millisecond)
	if !slices.Equal(log, want) {
		t.Errorf("OnReroute order %v, want %v", log, want)
	}
}
