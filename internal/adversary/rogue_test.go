package adversary

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// recordCC is a fake inner controller that records which hooks fired.
type recordCC struct {
	allows, sents, acks, cnps, reroutes, rewinds, stops int
	lastCE                                              bool
	lastINT                                             int
}

func (c *recordCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	c.allows++
	return now, true
}
func (c *recordCC) OnSent(now sim.Time, pkt *netsim.Packet) { c.sents++ }
func (c *recordCC) OnAck(now sim.Time, pkt *netsim.Packet) {
	c.acks++
	c.lastCE = pkt.CE
	c.lastINT = len(pkt.EchoINT())
}
func (c *recordCC) OnCNP(now sim.Time, pkt *netsim.Packet) { c.cnps++ }
func (c *recordCC) CurrentRate() netsim.Rate               { return netsim.Gbps(7) }
func (c *recordCC) OnReroute(now sim.Time)                 { c.reroutes++ }
func (c *recordCC) OnRewind(now sim.Time, seq int64)       { c.rewinds++ }
func (c *recordCC) Stop()                                  { c.stops++ }

func TestParseRogueKind(t *testing.T) {
	for _, k := range RogueKinds() {
		got, err := ParseRogueKind(string(k))
		if err != nil || got != k {
			t.Errorf("ParseRogueKind(%q) = %q, %v", k, got, err)
		}
	}
	if _, err := ParseRogueKind("polite"); err == nil {
		t.Error("ParseRogueKind accepted an unknown kind")
	}
}

func TestCNPDeafSwallowsCNPsOnly(t *testing.T) {
	inner := &recordCC{}
	r := WrapRogue(RogueCNPDeaf, inner, 0)
	ack := &netsim.Packet{Kind: netsim.KindAck, CE: true}
	ack.SetEchoINT(make([]netsim.INTRecord, 2))
	cnp := &netsim.Packet{Kind: netsim.KindCNP}
	r.Allow(0, 1000)
	r.OnSent(0, &netsim.Packet{})
	r.OnAck(0, ack)
	r.OnCNP(0, cnp)
	r.OnReroute(0)
	r.OnRewind(0, 0)
	r.Stop()
	if inner.cnps != 0 {
		t.Error("CNP reached a CNP-deaf controller")
	}
	if inner.allows != 1 || inner.sents != 1 || inner.acks != 1 ||
		inner.reroutes != 1 || inner.rewinds != 1 || inner.stops != 1 {
		t.Errorf("non-CNP hooks not forwarded: %+v", inner)
	}
	if !inner.lastCE || inner.lastINT != 2 {
		t.Error("CNP-deaf rogue altered ACK signals (that is ECN-blind's job)")
	}
	if r.CurrentRate() != netsim.Gbps(7) {
		t.Error("CurrentRate not forwarded")
	}
}

func TestECNBlindStripsAckSignals(t *testing.T) {
	inner := &recordCC{}
	r := WrapRogue(RogueECNBlind, inner, 0)
	ack := &netsim.Packet{Kind: netsim.KindAck, CE: true}
	ack.SetEchoINT(make([]netsim.INTRecord, 3))
	r.OnAck(0, ack)
	r.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP})
	if inner.acks != 1 || inner.lastCE || inner.lastINT != 0 {
		t.Errorf("ACK signals survived the blinding: %+v", inner)
	}
	if inner.cnps != 0 {
		t.Error("CNP reached an ECN-blind controller")
	}
}

func TestBlastIgnoresInnerEntirely(t *testing.T) {
	inner := &recordCC{}
	r := WrapRogue(RogueBlast, inner, netsim.Gbps(20))
	r.Allow(0, 1000)
	r.OnSent(0, &netsim.Packet{Size: 1000})
	r.OnAck(0, &netsim.Packet{Kind: netsim.KindAck})
	r.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP})
	if inner.allows != 0 || inner.sents != 0 || inner.acks != 0 || inner.cnps != 0 {
		t.Errorf("blast forwarded controller hooks: %+v", inner)
	}
	if r.CurrentRate() != netsim.Gbps(20) {
		t.Error("blast CurrentRate is not the configured rate")
	}
}

// TestBlastPacesAtConfiguredRate runs a blast rogue through a real
// fabric and checks the delivered rate tracks the configured blast rate.
func TestBlastPacesAtConfiguredRate(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	net.Connect(sw, b, netsim.Gbps(40), 1500)
	net.ComputeRoutes()

	rate := netsim.Gbps(10)
	f := net.StartFlow(a, b, netsim.FlowConfig{
		Size: -1,
		CC:   WrapRogue(RogueBlast, nil, rate),
	})
	dur := 2 * sim.Millisecond
	engine.RunUntil(dur)
	f.Stop()
	got := float64(f.DeliveredBytes()) * 8 / dur.Seconds()
	if got < 0.8*float64(rate) || got > 1.1*float64(rate) {
		t.Errorf("blast delivered %.1f Gb/s, want ~%.1f", got/1e9, rate.Gbps())
	}
}
