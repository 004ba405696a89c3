package netsim

import (
	"testing"

	"rocc/internal/sim"
)

func TestLinkDownClearsPauseState(t *testing.T) {
	// Pause state is link-local: it must die with the link. A host paused
	// by PFC whose uplink then fails would otherwise sit frozen for the
	// whole outage and read as a pause storm instead of a link failure.
	engine, net, srcs, dst, sw, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 30 * KB,
	})
	var flows []*Flow
	for _, s := range srcs {
		flows = append(flows, net.StartFlow(s, dst, FlowConfig{Size: -1}))
	}
	nic := srcs[0].NIC()
	var when sim.Time
	for when = 10 * sim.Microsecond; when < 5*sim.Millisecond; when += 10 * sim.Microsecond {
		engine.RunUntil(when)
		if nic.Paused() {
			break
		}
	}
	if !nic.Paused() {
		t.Fatal("incast never paused the source NIC; fixture broken")
	}
	net.FailLink(nic)
	if nic.Paused() {
		t.Error("NIC still paused after its link went down")
	}
	// The pause span ended at the down-transition; a long outage must
	// account as LinkDownDrops, not one giant pause interval, and no new
	// pause may start behind the downed link (each start moves pausedAt).
	startAtFail := nic.pausedAt
	engine.RunUntil(when + sim.Millisecond)
	if span := nic.CurrentPauseSpan(); span != 0 {
		t.Errorf("pause span kept accumulating across the outage: %v", span)
	}
	if nic.pausedAt != startAtFail {
		t.Errorf("a pause started at %v during the outage", nic.pausedAt)
	}
	for _, f := range flows {
		f.Stop()
	}
	_ = sw
}

func TestStalePauseFrameRejected(t *testing.T) {
	// A pause frame launched before a flap must not freeze the port after
	// it: acceptPause rejects frames older than the link's last
	// up-transition (and anything arriving while the link is down).
	engine, net, a, _, sw := pair(Gbps(40))
	nic := a.NIC()
	engine.RunUntil(100 * sim.Microsecond)

	stale := &Packet{Kind: KindPause, PauseOn: true, SendTS: 50 * sim.Microsecond}
	net.FailLink(nic)
	if nic.acceptPause(stale) {
		t.Error("pause accepted while the link was down")
	}
	net.RestoreLink(nic) // upSince = 100 µs, after the frame's SendTS
	if nic.acceptPause(stale) {
		t.Error("pre-flap pause frame accepted after the link came back")
	}
	if net.StalePauseDrops() != 2 {
		t.Errorf("StalePauseDrops = %d, want 2", net.StalePauseDrops())
	}
	fresh := &Packet{Kind: KindPause, PauseOn: true, SendTS: engine.Now()}
	if !nic.acceptPause(fresh) {
		t.Error("post-flap pause frame rejected")
	}
	_ = sw
}

func TestFlapDuringPauseNoDeadlock(t *testing.T) {
	// Forced regression for the stale-pause wedge: flap the source's
	// access link at the instant a pause frame is in flight toward it.
	// The frame lands after the up-transition, must be discarded as
	// stale, and traffic must keep flowing — no port may stay paused.
	engine, net, srcs, dst, _, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 30 * KB,
	})
	var flows []*Flow
	for _, s := range srcs {
		flows = append(flows, net.StartFlow(s, dst, FlowConfig{Size: -1}))
	}
	nic := srcs[0].NIC()
	swPort := peerPort(nic) // switch side of the access link, the pause sender

	// Step in sub-propagation increments until the switch has sent this
	// NIC a pause frame that has not landed yet (sent-Xoff on record, NIC
	// not paused); it is in flight for LinkDelay (1500 ns).
	s := swPort.owner.(*Switch)
	flapped := false
	for when := sim.Time(0); when < 5*sim.Millisecond; when += 500 * sim.Nanosecond {
		engine.RunUntil(when)
		if when > 200*sim.Microsecond && // let the incast establish first
			s.pausedIngress[swPort.Index] && !nic.Paused() {
			net.FailLink(nic)
			net.RestoreLink(nic)
			flapped = true
			break
		}
	}
	if !flapped {
		t.Fatal("never caught a pause frame in flight; fixture broken")
	}
	if nic.Paused() {
		t.Fatal("NIC paused immediately after the flap")
	}
	engine.RunUntil(engine.Now() + 100*sim.Microsecond)
	if net.StalePauseDrops() == 0 {
		t.Error("the in-flight pause frame was not dropped as stale")
	}

	// The fabric must make progress after the flap and end unpaused.
	before := int64(0)
	for _, f := range flows {
		before += f.DeliveredBytes()
	}
	engine.RunUntil(engine.Now() + 2*sim.Millisecond)
	after := int64(0)
	for _, f := range flows {
		f.Stop()
	}
	engine.RunUntil(engine.Now() + 5*sim.Millisecond) // drain
	for _, f := range flows {
		after += f.DeliveredBytes()
	}
	if after <= before {
		t.Error("no bytes delivered after the flap: stale-pause deadlock")
	}
	for _, s := range net.Switches() {
		for _, p := range s.Ports() {
			if p.Paused() {
				t.Errorf("switch %s port %d still paused after drain", s.Name, p.Index)
			}
		}
	}
	for _, h := range net.Hosts() {
		if h.NIC().Paused() {
			t.Errorf("host %s NIC still paused after drain", h.Name)
		}
	}
}
