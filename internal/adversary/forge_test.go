package adversary

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
)

// ForgeConfig drives a spoofed-CNP injection attack: a host fabricates
// congestion notifications addressed to a victim flow's source,
// claiming a congestion point of the attacker's choosing and a fair
// rate designed to throttle the victim. The forged packets are ordinary
// KindCNP traffic — they ride the control class through the real fabric
// and land in the victim's reaction point exactly like genuine
// feedback, which is what makes the core.RPConfig.Witness defense (and
// the roccnet VerifyCPPath/MaxCNPAge options) necessary.
type ForgeConfig struct {
	// Victim is the targeted flow; forged CNPs are addressed to its
	// source host and tagged with its flow id.
	Victim netsim.FlowID

	// CP is the congestion-point identity the forgery claims. An
	// off-path CP is detectable by the path witness; an on-path CP is
	// the strongest spoof (only rate plausibility checks remain).
	CP netsim.CPID

	// RateUnits is the advertised fair rate in ΔF units. Low values
	// drag the victim's rate toward zero.
	RateUnits int

	// Until stops the attack (no packets injected after it). Zero
	// means the attack runs as long as the victim flow exists.
	Until sim.Time

	// StampAge backdates each forged CNP's send timestamp, modelling a
	// replayed capture instead of a live forgery. Zero stamps the
	// current time (a fresh spoof).
	StampAge sim.Time
}

// forgePeriod is the injection cadence: one CP update interval, so the
// forgery is indistinguishable in timing from a real CP.
const forgePeriod = 40 * sim.Microsecond

// Forger injects spoofed CNPs from a host on a fixed schedule.
type Forger struct {
	net  *netsim.Network
	host *netsim.Host
	cfg  ForgeConfig

	Sent int // forged CNPs injected
}

// NewForger builds the attacker and schedules its first injection one
// period out.
func NewForger(host *netsim.Host, cfg ForgeConfig) *Forger {
	f := &Forger{net: host.Network(), host: host, cfg: cfg}
	f.net.Engine.AfterCall(forgePeriod, forgeTick, f, nil)
	return f
}

// forgeTick injects one spoofed CNP and re-arms. A missing victim flow
// (completed, removed) ends the attack; a configured Until bound ends
// it at its deadline.
func forgeTick(a, _ any) {
	f := a.(*Forger)
	now := f.net.Engine.Now()
	if f.cfg.Until > 0 && now > f.cfg.Until {
		return
	}
	victim := f.net.Flow(f.cfg.Victim)
	if victim == nil {
		return
	}
	pkt := f.net.AcquirePacket(f.host)
	pkt.Flow = f.cfg.Victim
	pkt.Src = f.host.ID()
	pkt.Dst = victim.Src().ID()
	pkt.Kind = netsim.KindCNP
	pkt.Cls = netsim.ClassCtrl
	pkt.Size = netsim.CNPBytes
	pkt.SendTS = now - f.cfg.StampAge
	info := pkt.EnsureCNP()
	info.CP = f.cfg.CP
	info.RateUnits = f.cfg.RateUnits
	f.host.Send(pkt)
	f.Sent++
	f.net.Engine.AfterCall(forgePeriod, forgeTick, f, nil)
}

// forgeRig: victim a → sw → b under RoCC, attacker host c on the same
// switch injecting spoofed CNPs at the victim's reaction point.
func forgeRig(opts roccnet.RPOptions, forge ForgeConfig) (*roccnet.FlowCC, *netsim.Flow, *Forger, *sim.Engine) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	c := net.AddHost("c")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	net.Connect(b, sw, netsim.Gbps(40), 1500)
	net.Connect(c, sw, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	cc := roccnet.NewFlowCC(a, opts)
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, CC: cc})
	forge.Victim = f.ID
	fg := NewForger(c, forge)
	return cc, f, fg, engine
}

// offPathCP is a congestion point no packet of the victim ever crossed.
var offPathCP = netsim.CPID{Node: 66, Port: 3}

// TestForgedCNPThrottlesUndefendedRP: without the witness, spoofed CNPs
// advertising a tiny fair rate are indistinguishable from genuine
// feedback and collapse the victim (5 ΔF units = 50 Mb/s).
func TestForgedCNPThrottlesUndefendedRP(t *testing.T) {
	cc, _, fg, engine := forgeRig(roccnet.RPOptions{}, ForgeConfig{
		CP: offPathCP, RateUnits: 5,
	})
	engine.RunUntil(2 * sim.Millisecond)
	if fg.Sent == 0 {
		t.Fatal("forger injected nothing")
	}
	if got := cc.CurrentRate(); got > netsim.Gbps(1) {
		t.Errorf("undefended victim still at %.2f Gb/s — the spoof should have throttled it",
			got.Gbps())
	}
}

// TestPathWitnessDefeatsSpoofedCP: VerifyCPPath learns the victim's real
// path and rejects the off-path origin — the rate never moves.
func TestPathWitnessDefeatsSpoofedCP(t *testing.T) {
	cc, _, fg, engine := forgeRig(roccnet.RPOptions{VerifyCPPath: true}, ForgeConfig{
		CP: offPathCP, RateUnits: 5,
	})
	engine.RunUntil(2 * sim.Millisecond)
	if fg.Sent == 0 {
		t.Fatal("forger injected nothing")
	}
	rp := cc.RP()
	if rp.CNPsSpoofed == 0 {
		t.Error("witness detected no spoofs")
	}
	if rp.Installed() {
		t.Error("spoofed CNP got through the witness: rate limiter installed")
	}
	if got := cc.CurrentRate(); got != netsim.Gbps(40) {
		t.Errorf("defended victim throttled to %.2f Gb/s by rejected spoofs", got.Gbps())
	}
}

// TestMaxCNPAgeDefeatsReplay: a replayed capture (backdated send stamp)
// fails the age check before it can steer the rate.
func TestMaxCNPAgeDefeatsReplay(t *testing.T) {
	cc, _, fg, engine := forgeRig(
		roccnet.RPOptions{MaxCNPAge: 250 * sim.Microsecond},
		ForgeConfig{CP: offPathCP, RateUnits: 5, StampAge: sim.Millisecond},
	)
	engine.RunUntil(2 * sim.Millisecond)
	if fg.Sent == 0 {
		t.Fatal("forger injected nothing")
	}
	if cc.Replays == 0 {
		t.Error("no replays detected")
	}
	if cc.RP().Installed() {
		t.Error("replayed CNP accepted: rate limiter installed")
	}
	if got := cc.CurrentRate(); got != netsim.Gbps(40) {
		t.Errorf("victim throttled to %.2f Gb/s by replayed CNPs", got.Gbps())
	}
}

// TestForgerStopsWithVictim: the attack ends when the victim flow goes
// away — no injections into a flow the network no longer knows.
func TestForgerStopsWithVictim(t *testing.T) {
	_, f, fg, engine := forgeRig(roccnet.RPOptions{}, ForgeConfig{
		CP: offPathCP, RateUnits: 5,
	})
	engine.RunUntil(500 * sim.Microsecond)
	f.Stop()
	// Flow teardown is deferred past the drain, so a few in-flight ticks
	// may still land; once the network forgets the flow, silence.
	engine.RunUntil(sim.Millisecond)
	sentAfterDrain := fg.Sent
	engine.RunUntil(3 * sim.Millisecond)
	if fg.Sent != sentAfterDrain {
		t.Errorf("forger kept injecting after the victim left: %d → %d", sentAfterDrain, fg.Sent)
	}
}

// TestForgerUntilBound: a bounded attack stops at its deadline.
func TestForgerUntilBound(t *testing.T) {
	_, _, fg, engine := forgeRig(roccnet.RPOptions{}, ForgeConfig{
		CP: offPathCP, RateUnits: 5, Until: 400 * sim.Microsecond,
	})
	engine.RunUntil(2 * sim.Millisecond)
	// 40 µs cadence into a 400 µs budget: about ten injections, not fifty.
	if fg.Sent == 0 || fg.Sent > 11 {
		t.Errorf("bounded forger sent %d CNPs, want ~10", fg.Sent)
	}
}
