package adversary

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// star builds nSrc source hosts feeding one destination through a single
// switch with 40G links — the incast fixture the policer defends.
func star(nSrc int) (*sim.Engine, *netsim.Network, []*netsim.Host, *netsim.Host, *netsim.Switch) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	dst := net.AddHost("dst")
	net.Connect(sw, dst, netsim.Gbps(40), 1500)
	srcs := make([]*netsim.Host, nSrc)
	for i := range srcs {
		srcs[i] = net.AddHost("src")
		net.Connect(srcs[i], sw, netsim.Gbps(40), 1500)
	}
	net.ComputeRoutes()
	return engine, net, srcs, dst, sw
}

// TestPolicerQuarantinesBlaster: four victims pace at their 8G fair
// share; one rogue blasts at line rate. The policer must quarantine the
// rogue (and only the rogue), and the victims must recover goodput they
// lose in the undefended run.
func TestPolicerQuarantinesBlaster(t *testing.T) {
	const dur = 3 * sim.Millisecond
	run := func(defended bool) (victimBytes int64, p *Policer, rogueID netsim.FlowID, net *netsim.Network) {
		engine, net, srcs, dst, sw := star(5)
		if defended {
			p = NewPolicer(net, sw, PolicerConfig{})
		}
		victims := make([]*netsim.Flow, 4)
		for i := range victims {
			victims[i] = net.StartFlow(srcs[i], dst, netsim.FlowConfig{
				Size: -1, MaxRate: netsim.Gbps(8),
			})
		}
		rogue := net.StartFlow(srcs[4], dst, netsim.FlowConfig{Size: -1})
		engine.RunUntil(dur)
		for _, v := range victims {
			victimBytes += v.DeliveredBytes()
		}
		return victimBytes, p, rogue.ID, net
	}

	undefended, _, _, _ := run(false)
	defended, p, rogueID, net := run(true)

	if p.Stats().Detections < 1 {
		t.Fatalf("policer never detected the blaster: %+v", p.Stats())
	}
	if !p.Quarantined(rogueID) {
		t.Error("the blaster is not the quarantined flow")
	}
	if got := p.CurrentQuarantined(); got != p.Stats().Detections-p.Stats().Releases {
		t.Errorf("quarantine accounting: current=%d detections=%d releases=%d",
			got, p.Stats().Detections, p.Stats().Releases)
	}
	if p.CurrentQuarantined() != 1 {
		t.Errorf("quarantined %d flows, want only the rogue", p.CurrentQuarantined())
	}
	if net.PolicedDrops() == 0 {
		t.Error("quarantine enforced nothing (no policed drops)")
	}
	// Policed drops are not lossless-contract violations.
	if net.TotalDrops() != 0 {
		t.Errorf("policing leaked into tail-drop accounting: %d", net.TotalDrops())
	}
	if float64(defended) < 1.3*float64(undefended) {
		t.Errorf("victims gained too little from policing: %d defended vs %d undefended bytes",
			defended, undefended)
	}
}

// TestPolicerReleasesCompliantFlow: a mis-flagged flow that stays within
// its share is released after the exit hysteresis (satellite: hysteresis
// and release path, exercised via the ForceQuarantine regression hook).
func TestPolicerReleasesCompliantFlow(t *testing.T) {
	engine, net, srcs, dst, sw := star(2)
	p := NewPolicer(net, sw, PolicerConfig{})
	f := net.StartFlow(srcs[0], dst, netsim.FlowConfig{Size: -1, MaxRate: netsim.Gbps(2)})
	engine.RunUntil(200 * sim.Microsecond)
	p.ForceQuarantine(f.ID, netsim.Gbps(1))
	if !p.Quarantined(f.ID) {
		t.Fatal("ForceQuarantine did not quarantine")
	}
	// ReleaseAfter(8) × Window(100µs) of compliant offered load.
	engine.RunUntil(200*sim.Microsecond + 12*100*sim.Microsecond)
	if p.Quarantined(f.ID) {
		t.Error("compliant flow never released")
	}
	st := p.Stats()
	if st.Releases != 1 || st.Detections != 1 {
		t.Errorf("stats after release: %+v", st)
	}
	if p.CurrentQuarantined() != 0 {
		t.Errorf("CurrentQuarantined = %d after release", p.CurrentQuarantined())
	}
}

// TestPolicerRequireAdvertised: with RequireAdvertised the policer holds
// fire on egresses without a contract — the same line-rate blaster that
// trips the equal-split fallback is untouched until an advertised rate
// appears, and is quarantined once one does.
func TestPolicerRequireAdvertised(t *testing.T) {
	run := func(advertise bool) (*Policer, netsim.FlowID) {
		engine, net, srcs, dst, sw := star(3)
		cfg := PolicerConfig{RequireAdvertised: true}
		if advertise {
			cfg.AdvertisedRate = func(port *netsim.Port) (netsim.Rate, bool) {
				return netsim.Gbps(10), true
			}
		}
		p := NewPolicer(net, sw, cfg)
		for i := 0; i < 2; i++ {
			net.StartFlow(srcs[i], dst, netsim.FlowConfig{Size: -1, MaxRate: netsim.Gbps(8)})
		}
		rogue := net.StartFlow(srcs[2], dst, netsim.FlowConfig{Size: -1})
		engine.RunUntil(3 * sim.Millisecond)
		return p, rogue.ID
	}

	p, _ := run(false)
	if st := p.Stats(); st.Detections != 0 || p.net.PolicedDrops() != 0 {
		t.Errorf("policer acted without an advertised contract: %+v, %d drops", st, p.net.PolicedDrops())
	}
	p, rogueID := run(true)
	if p.Stats().Detections < 1 || !p.Quarantined(rogueID) {
		t.Errorf("advertised contract present but blaster not quarantined: %+v", p.Stats())
	}
}

// TestPolicerDoubleAttachPanics: a switch carries at most one Police hook.
func TestPolicerDoubleAttachPanics(t *testing.T) {
	_, net, _, _, sw := star(1)
	NewPolicer(net, sw, PolicerConfig{})
	defer func() {
		if recover() == nil {
			t.Error("second policer on one switch did not panic")
		}
	}()
	NewPolicer(net, sw, PolicerConfig{})
}

// TestPolicerIdentityOnCompliantFabric: attaching a policer to a fabric
// whose flows all stay within share must not perturb the trajectory —
// the same bytes in the same virtual time (the zero-fault identity
// contract, as in internal/faults).
func TestPolicerIdentityOnCompliantFabric(t *testing.T) {
	run := func(defended bool) (int64, sim.Time) {
		engine, net, srcs, dst, sw := star(2)
		if defended {
			NewPolicer(net, sw, PolicerConfig{})
		}
		f := net.StartFlow(srcs[0], dst, netsim.FlowConfig{
			Size: 400_000, MaxRate: netsim.Gbps(10),
		})
		g := net.StartFlow(srcs[1], dst, netsim.FlowConfig{
			Size: 400_000, MaxRate: netsim.Gbps(10),
		})
		engine.RunUntil(5 * sim.Millisecond)
		if !f.Done() || !g.Done() {
			t.Fatal("flows incomplete")
		}
		return f.DeliveredBytes() + g.DeliveredBytes(), f.FCT() + g.FCT()
	}
	bytes0, t0 := run(false)
	bytes1, t1 := run(true)
	if bytes0 != bytes1 || t0 != t1 {
		t.Errorf("compliant run diverged under policing: %d/%v vs %d/%v",
			bytes0, t0, bytes1, t1)
	}
}
