package adversary

import (
	"rocc/internal/netsim"
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
