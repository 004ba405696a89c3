package faults

import (
	"testing"

	"rocc/internal/sim"
)

func TestLinkConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  LinkConfig
		ok   bool
	}{
		{"zero", LinkConfig{}, true},
		{"typical", LinkConfig{Drop: 0.1, Corrupt: 0.05, Duplicate: 0.02, Reorder: 0.1}, true},
		{"sum exactly one", LinkConfig{Drop: 0.5, Corrupt: 0.5}, true},
		{"negative drop", LinkConfig{Drop: -0.1}, false},
		{"sum past one", LinkConfig{Drop: 0.6, Corrupt: 0.6}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestValidateInvalidConfigStillPanicsOnAttach(t *testing.T) {
	_, net, a, _, _ := pair()
	in := New(net, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("Direction accepted a config Validate rejects")
		}
	}()
	in.Direction(a.NIC(), LinkConfig{Drop: -1})
}

func TestValidateSchedules(t *testing.T) {
	if err := ValidateFlap(sim.Millisecond, 100*sim.Microsecond); err != nil {
		t.Errorf("valid flap rejected: %v", err)
	}
	if ValidateFlap(sim.Millisecond, sim.Millisecond) == nil {
		t.Error("flap with downFor == period accepted")
	}
	if ValidateFlap(0, 0) == nil {
		t.Error("zero flap accepted")
	}
	if err := ValidateStall(sim.Millisecond, 400*sim.Microsecond); err != nil {
		t.Errorf("valid stall rejected: %v", err)
	}
	if ValidateStall(sim.Millisecond, 2*sim.Millisecond) == nil {
		t.Error("stall longer than period accepted")
	}
	if err := ValidateProb(0.3); err != nil {
		t.Errorf("valid probability rejected: %v", err)
	}
	if ValidateProb(1.5) == nil || ValidateProb(-0.1) == nil {
		t.Error("out-of-range probability accepted")
	}
}

func TestFlapQuiescesByDeadline(t *testing.T) {
	engine, net, a, _, sw := pair()
	in := New(net, 7)
	link := a.NIC()
	peer := sw.PortTo(a)
	until := 5 * sim.Millisecond
	in.Flap(link, peer, sim.Millisecond, 300*sim.Microsecond, until)
	engine.RunUntil(20 * sim.Millisecond)
	if link.LinkDown() || peer.LinkDown() {
		t.Fatal("link still down after the flap deadline")
	}
	if got := in.Stats().Flaps; got == 0 || got > 5 {
		t.Fatalf("Flaps = %d, want a handful bounded by the 5ms window", got)
	}
}

func TestStallCPQuiescesByDeadline(t *testing.T) {
	engine, net, _, _, sw := pair()
	in := New(net, 7)
	until := 4 * sim.Millisecond
	in.StallCP(sw, sim.Millisecond, 400*sim.Microsecond, until)
	engine.RunUntil(20 * sim.Millisecond)
	if g := in.gates[sw]; g == nil || g.stalled {
		t.Fatal("CP gate still stalled after the stall deadline")
	}
	if got := in.Stats().StallWindows; got == 0 || got > 4 {
		t.Fatalf("StallWindows = %d, want a handful bounded by the 4ms window", got)
	}
}
