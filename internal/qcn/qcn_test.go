package qcn

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func cpFixture() (*sim.Engine, *netsim.Network, *netsim.Host, *netsim.Host, *netsim.Switch, *CP) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	port, _ := net.Connect(sw, b, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	cp := AttachCP(net, sw, port, DefaultConfig(40))
	return engine, net, a, b, sw, cp
}

func TestCPSamplingCadence(t *testing.T) {
	_, net, a, b, _, cp := cpFixture()
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1})
	pkt := &netsim.Packet{Flow: f.ID, Src: a.ID(), Dst: b.ID(), Kind: netsim.KindData, Size: 1048}
	// Below one sampling period: no feedback possible.
	for sent := 0; sent < 149_000; sent += 1048 {
		cp.OnEnqueue(0, pkt, 500_000) // deep queue: Fb < 0 if sampled
	}
	if cp.FbSent != 0 {
		t.Errorf("feedback before a full sampling period: %d", cp.FbSent)
	}
	cp.OnEnqueue(0, pkt, 500_000) // crosses 150 KB
	if cp.FbSent != 1 {
		t.Errorf("FbSent = %d after crossing the sampling period", cp.FbSent)
	}
	f.Stop()
}

func TestCPNoFeedbackWhenUncongested(t *testing.T) {
	_, net, a, b, _, cp := cpFixture()
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1})
	pkt := &netsim.Packet{Flow: f.ID, Src: a.ID(), Dst: b.ID(), Kind: netsim.KindData, Size: 1048}
	for sent := 0; sent < 400_000; sent += 1048 {
		cp.OnEnqueue(0, pkt, 0) // empty queue: Fb = -(Qoff + w*Qdelta) > 0? Qoff=-Qeq<0 -> Fb>0
	}
	if cp.FbSent != 0 {
		t.Errorf("feedback sent with empty queue: %d", cp.FbSent)
	}
	f.Stop()
}

func TestRPCutProportionalToFb(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cfg := DefaultConfig(40)
	cc := NewFlowCC(h, cfg)
	small := cnpPacket(1)
	big := cnpPacket(63)
	cc.OnCNP(0, small)
	afterSmall := cc.CurrentRate().Mbps()
	cc2 := NewFlowCC(h, cfg)
	cc2.OnCNP(0, big)
	afterBig := cc2.CurrentRate().Mbps()
	if afterSmall <= afterBig {
		t.Errorf("cut not proportional: smallFb->%v bigFb->%v", afterSmall, afterBig)
	}
	// Max Fb cuts at most half (Gd scaling).
	if afterBig < 40000*0.49 {
		t.Errorf("max cut %v below the 1/2 bound", afterBig)
	}
	cc.Stop()
	cc2.Stop()
}

func TestRPRecovery(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cc := NewFlowCC(h, DefaultConfig(40))
	cc.OnCNP(0, cnpPacket(40))
	cut := cc.CurrentRate().Mbps()
	engine.RunUntil(50 * sim.Millisecond)
	if got := cc.CurrentRate().Mbps(); got <= cut {
		t.Errorf("no recovery: %v", got)
	}
	cc.Stop()
}

func TestRPIgnoresMalformedCNP(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cc := NewFlowCC(h, DefaultConfig(40))
	cc.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP}) // no payload
	if cc.Cuts != 0 {
		t.Error("cut on CNP without Fb payload")
	}
	cc.Stop()
}

func TestEndToEndQueueBounded(t *testing.T) {
	engine, net, a, b, sw, _ := cpFixture()
	cc := NewFlowCC(a, DefaultConfig(40))
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, MaxRate: netsim.Gbps(36), CC: cc})
	engine.RunUntil(20 * sim.Millisecond)
	// Single flow at 90% offered: QCN must keep the queue in the vicinity
	// of Qeq, far from unbounded.
	if q := sw.Port(1).DataQueueBytes(); q > 500*netsim.KB {
		t.Errorf("queue = %d bytes, QCN not controlling", q)
	}
	f.Stop()
}

// cnpPacket builds a QCN CNP carrying feedback fb.
func cnpPacket(fb int) *netsim.Packet {
	pkt := &netsim.Packet{Kind: netsim.KindCNP}
	pkt.EnsureCNP().RateUnits = fb
	return pkt
}
