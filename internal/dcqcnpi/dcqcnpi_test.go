package dcqcnpi

import (
	"testing"

	"rocc/internal/dcqcn"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func fixture() (*sim.Engine, *netsim.Network, *netsim.Port, *Marker) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	h := net.AddHost("h")
	port, _ := net.Connect(sw, h, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	m := Attach(net, port, DefaultConfig(40), sim.NewRand(1))
	return engine, net, port, m
}

func TestProbabilityRisesAboveReference(t *testing.T) {
	engine, net, port, m := fixture()
	// Build a standing queue above Qref by stuffing the (slow) port.
	h := net.Hosts()[0]
	for i := 0; i < 400; i++ {
		port.Enqueue(&netsim.Packet{Kind: netsim.KindData, Cls: netsim.ClassData, Size: 1048, Dst: h.ID()})
	}
	// Check while the backlog is still above the reference (it drains at
	// line rate in ~84 us; two PI updates happen first).
	engine.RunUntil(80 * sim.Microsecond)
	if m.p <= 0 {
		t.Errorf("p = %v with queue above reference", m.p)
	}
	m.Stop()
}

func TestProbabilityDecaysWhenEmpty(t *testing.T) {
	engine, _, _, m := fixture()
	m.p = 0.5
	m.qold = 200 * netsim.KB
	engine.RunUntil(2 * sim.Millisecond) // many updates with empty queue
	if m.p != 0 {
		t.Errorf("p = %v with empty queue, want 0", m.p)
	}
	m.Stop()
}

func TestProbabilityClamped(t *testing.T) {
	engine, net, port, m := fixture()
	h := net.Hosts()[0]
	for i := 0; i < 5000; i++ {
		port.Enqueue(&netsim.Packet{Kind: netsim.KindData, Cls: netsim.ClassData, Size: 1048, Dst: h.ID()})
	}
	engine.RunUntil(10 * sim.Millisecond)
	if p := m.p; p < 0 || p > 1 {
		t.Errorf("p = %v out of [0,1]", p)
	}
	m.Stop()
}

func TestMarkingFollowsProbability(t *testing.T) {
	_, _, _, m := fixture()
	m.p = 1
	pkt := &netsim.Packet{ECT: true}
	m.OnEnqueue(0, pkt, 0)
	if !pkt.CE {
		t.Error("p=1 did not mark")
	}
	m.p = 0
	pkt2 := &netsim.Packet{ECT: true}
	m.OnEnqueue(0, pkt2, 0)
	if pkt2.CE {
		t.Error("p=0 marked")
	}
	m.Stop()
}

func TestStopHaltsUpdates(t *testing.T) {
	engine, _, _, m := fixture()
	m.Stop()
	m.p = 0.3
	engine.RunUntil(5 * sim.Millisecond)
	if m.p != 0.3 {
		t.Error("updates continued after Stop")
	}
}

func TestDefaultEndpointMatchesDCQCN(t *testing.T) {
	ep := DefaultEndpoint(40)
	if ep.RAIMbps != 40 || ep.G != 1.0/256 {
		t.Errorf("endpoint config diverges from DCQCN: %+v", ep)
	}
}

func TestPIMarkerStabilizesQueue(t *testing.T) {
	// End to end: DCQCN endpoints + PI marker hold the queue near Qref,
	// the [45] result the paper cites.
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{PFCEnabled: true, PFCThreshold: 500 * netsim.KB})
	dst := net.AddHost("dst")
	var srcs []*netsim.Host
	for i := 0; i < 4; i++ {
		h := net.AddHost("src")
		net.Connect(h, sw, netsim.Gbps(40), 1500)
		srcs = append(srcs, h)
	}
	port, _ := net.Connect(sw, dst, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	cfg := DefaultConfig(40)
	Attach(net, port, cfg, net.Rand.Split())
	ep := DefaultEndpoint(40)
	dst.Receiver = dcqcn.NewReceiver(ep, dst)
	for _, s := range srcs {
		net.StartFlow(s, dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36),
			CC: dcqcn.NewFlowCC(s, ep),
		})
	}
	var sum, n float64
	sampler := engine.NewTicker(100*sim.Microsecond, func() {
		if engine.Now() > 15*sim.Millisecond {
			sum += float64(port.DataQueueBytes())
			n++
		}
	})
	engine.RunUntil(30 * sim.Millisecond)
	sampler.Stop()
	avg := sum / n
	if avg < float64(cfg.QrefBytes)/4 || avg > float64(cfg.QrefBytes)*3 {
		t.Errorf("average queue %.0f far from Qref %d", avg, cfg.QrefBytes)
	}
}
