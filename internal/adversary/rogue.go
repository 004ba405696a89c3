package adversary

import (
	"fmt"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// RogueKind names a sender misbehaviour. Every kind wraps a real
// protocol controller, so any of the seven protocols can host a rogue —
// the receiver, the switch elements and the ACK machinery keep running
// the genuine protocol while the sender's reaction to feedback is
// subverted.
type RogueKind string

const (
	// RogueCNPDeaf swallows every congestion notification (RoCC/DCQCN
	// CNPs, DCTCP's CE echoes — anything landing in OnCNP) before the
	// controller sees it. Feedback carried on ACKs (HPCC INT, TIMELY
	// RTT) still reaches the controller: the rogue's NIC "loses" CNPs,
	// nothing else.
	RogueCNPDeaf RogueKind = "cnpdeaf"

	// RogueECNBlind is CNP-deaf plus ACK-signal stripping: CE marks and
	// echoed INT telemetry are cleared from every ACK before the
	// controller sees it, blinding window-based schemes (HPCC, DCTCP)
	// that CNP-deafness alone leaves functional.
	RogueECNBlind RogueKind = "ecnblind"

	// RogueBlast replaces the controller outright with a fixed-rate
	// pacer (line rate when the configured rate is zero): the incast
	// bomber's per-source behaviour, and the strongest misbehaviour —
	// no feedback of any kind is consulted.
	RogueBlast RogueKind = "blast"
)

// RogueKinds lists every kind, for sweeps and scenario generators.
func RogueKinds() []RogueKind {
	return []RogueKind{RogueCNPDeaf, RogueECNBlind, RogueBlast}
}

// ParseRogueKind validates a kind string (scenario JSON, CLI flags).
func ParseRogueKind(s string) (RogueKind, error) {
	switch k := RogueKind(s); k {
	case RogueCNPDeaf, RogueECNBlind, RogueBlast:
		return k, nil
	}
	return "", fmt.Errorf("adversary: unknown rogue kind %q", s)
}

// Rogue is a misbehaving flow controller wrapping a real one. It
// implements netsim.FlowCC plus the optional RouteAware/RetxAware/Stop
// contracts, forwarding each to the inner controller when it implements
// them — so a wrapped flow tears down and re-baselines exactly like an
// honest one.
type Rogue struct {
	kind  RogueKind
	inner netsim.FlowCC
	rate  netsim.Rate // blast pacing rate; zero = unpaced (line rate)
	pacer netsim.Pacer

	// Counters.
	SuppressedCNPs int // feedback packets swallowed
	StrippedAcks   int // ACKs whose CE/INT signals were cleared
}

// WrapRogue wraps a protocol controller in the given misbehaviour.
// blastRate only matters for RogueBlast (zero = no pacing, the NIC's
// line rate). The rate-cap-ignoring behaviour is not a wrapper concern:
// netsim enforces Flow.MaxRate in the flow itself, so a rogue simply
// starts with no cap (MaxRate 0) — see chaos and the rogue experiment.
func WrapRogue(kind RogueKind, inner netsim.FlowCC, blastRate netsim.Rate) *Rogue {
	if _, err := ParseRogueKind(string(kind)); err != nil {
		panic(err)
	}
	if inner == nil {
		inner = netsim.NoCC{}
	}
	return &Rogue{kind: kind, inner: inner, rate: blastRate}
}

// Allow implements netsim.FlowCC.
func (r *Rogue) Allow(now sim.Time, payload int) (sim.Time, bool) {
	if r.kind == RogueBlast {
		if r.rate > 0 {
			return r.pacer.Next(now), true
		}
		return now, true
	}
	return r.inner.Allow(now, payload)
}

// OnSent implements netsim.FlowCC.
func (r *Rogue) OnSent(now sim.Time, pkt *netsim.Packet) {
	if r.kind == RogueBlast {
		if r.rate > 0 {
			r.pacer.Consume(now, r.rate, pkt.Size)
		}
		return
	}
	r.inner.OnSent(now, pkt)
}

// OnAck implements netsim.FlowCC. The ECN-blind rogue clears the
// congestion signals an ACK carries (CE echo, INT telemetry) before the
// controller sees it; mutating the borrowed packet is safe because the
// host releases it only after this hook returns.
func (r *Rogue) OnAck(now sim.Time, pkt *netsim.Packet) {
	switch r.kind {
	case RogueBlast:
		return
	case RogueECNBlind:
		if pkt.CE || len(pkt.EchoINT()) > 0 {
			pkt.CE = false
			pkt.SetEchoINT(nil)
			r.StrippedAcks++
		}
	}
	r.inner.OnAck(now, pkt)
}

// OnCNP implements netsim.FlowCC: every kind is deaf to it.
func (r *Rogue) OnCNP(now sim.Time, pkt *netsim.Packet) {
	r.SuppressedCNPs++
}

// CurrentRate implements netsim.FlowCC.
func (r *Rogue) CurrentRate() netsim.Rate {
	if r.kind == RogueBlast {
		return r.rate
	}
	return r.inner.CurrentRate()
}

// OnReroute implements netsim.RouteAware, forwarding when the inner
// controller cares (harmless either way — re-baselining an ignored
// controller changes nothing the rogue consults).
func (r *Rogue) OnReroute(now sim.Time) {
	if ra, ok := r.inner.(netsim.RouteAware); ok {
		ra.OnReroute(now)
	}
}

// OnRewind implements netsim.RetxAware.
func (r *Rogue) OnRewind(now sim.Time, seq int64) {
	if ra, ok := r.inner.(netsim.RetxAware); ok {
		ra.OnRewind(now, seq)
	}
}

// Stop forwards flow teardown so inner timers are cancelled.
func (r *Rogue) Stop() {
	if s, ok := r.inner.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// CCProtocol implements netsim.ProtocolNamer for diagnostics.
func (r *Rogue) CCProtocol() string {
	return "rogue-" + string(r.kind)
}
