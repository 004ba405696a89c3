package netsim

import (
	"testing"
	"testing/quick"

	"rocc/internal/sim"
)

// diamond builds src — s0 — {s1, s2} — s3 — dst with equal-cost paths.
func diamond() (*sim.Engine, *Network, *Host, *Host, *Switch) {
	engine := sim.New()
	net := New(engine, 1)
	s0 := net.AddSwitch("s0", BufferConfig{})
	s1 := net.AddSwitch("s1", BufferConfig{})
	s2 := net.AddSwitch("s2", BufferConfig{})
	s3 := net.AddSwitch("s3", BufferConfig{})
	src := net.AddHost("src")
	dst := net.AddHost("dst")
	r := Gbps(40)
	net.Connect(src, s0, r, 1500)
	net.Connect(s0, s1, r, 1500)
	net.Connect(s0, s2, r, 1500)
	net.Connect(s1, s3, r, 1500)
	net.Connect(s2, s3, r, 1500)
	net.Connect(s3, dst, r, 1500)
	net.ComputeRoutes()
	return engine, net, src, dst, s0
}

func TestECMPEqualCostPathsDiscovered(t *testing.T) {
	_, _, _, dst, s0 := diamond()
	routes := s0.routeTo(dst.ID())
	if len(routes) != 2 {
		t.Fatalf("s0 has %d equal-cost ports toward dst, want 2", len(routes))
	}
}

func TestECMPFlowStickiness(t *testing.T) {
	// All packets of one flow must take the same path (no reordering).
	_, _, _, dst, s0 := diamond()
	pkt := func(flow FlowID) *Port {
		return s0.egressFor(&Packet{Flow: flow, Dst: dst.ID(), Kind: KindData})
	}
	for flow := FlowID(1); flow < 20; flow++ {
		first := pkt(flow)
		for i := 0; i < 10; i++ {
			if pkt(flow) != first {
				t.Fatalf("flow %d switched paths", flow)
			}
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	_, _, _, dst, s0 := diamond()
	counts := map[*Port]int{}
	for flow := FlowID(1); flow <= 1000; flow++ {
		counts[s0.egressFor(&Packet{Flow: flow, Dst: dst.ID()})]++
	}
	if len(counts) != 2 {
		t.Fatalf("flows hashed onto %d paths, want 2", len(counts))
	}
	for p, c := range counts {
		if c < 400 || c > 600 {
			t.Errorf("port %d got %d of 1000 flows; imbalanced", p.Index, c)
		}
	}
}

func TestEndToEndAcrossECMP(t *testing.T) {
	engine, net, src, dst, _ := diamond()
	f := net.StartFlow(src, dst, FlowConfig{Size: 1_000_000})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow across the diamond did not complete")
	}
}

func TestRoutingAllPairsReachable(t *testing.T) {
	// Random-ish multi-tier topology: every host pair must complete a
	// small flow.
	engine := sim.New()
	net := New(engine, 1)
	core := net.AddSwitch("core", BufferConfig{})
	var hosts []*Host
	for e := 0; e < 3; e++ {
		edge := net.AddSwitch("edge", BufferConfig{})
		net.Connect(edge, core, Gbps(100), 1500)
		for h := 0; h < 3; h++ {
			host := net.AddHost("h")
			net.Connect(host, edge, Gbps(40), 1500)
			hosts = append(hosts, host)
		}
	}
	net.ComputeRoutes()
	var flows []*Flow
	for i, a := range hosts {
		for j, b := range hosts {
			if i == j {
				continue
			}
			flows = append(flows, net.StartFlow(a, b, FlowConfig{Size: 5000}))
		}
	}
	engine.RunUntil(50 * sim.Millisecond)
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d undelivered", i)
		}
	}
}

func TestNoRoutePanics(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b") // never connected
	net.Connect(a, sw, Gbps(40), 1500)
	net.ComputeRoutes()
	defer func() {
		if recover() == nil {
			t.Error("routing a packet to an unreachable host did not panic")
		}
	}()
	sw.Arrive(&Packet{Dst: b.ID(), Kind: KindData, Cls: ClassData, Size: 100}, 0)
	_ = engine
}

func TestDoubleNICPanics(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	net.Connect(a, sw, Gbps(40), 1500)
	defer func() {
		if recover() == nil {
			t.Error("second NIC on a host did not panic")
		}
	}()
	net.Connect(a, sw, Gbps(40), 1500)
}

// Property: ecmpHash distributes flows near-uniformly for any switch id.
func TestECMPHashUniformityProperty(t *testing.T) {
	f := func(swID uint32, nPorts uint8) bool {
		ports := int(nPorts%7) + 2
		counts := make([]int, ports)
		const flows = 2000
		for fl := 0; fl < flows; fl++ {
			counts[ecmpHash(uint64(fl), uint64(swID))%uint64(ports)]++
		}
		for _, c := range counts {
			expect := flows / ports
			if c < expect/2 || c > expect*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSwitchPortTo(t *testing.T) {
	_, net, src, _, s0 := diamond()
	if s0.PortTo(src) == nil {
		t.Error("PortTo(src) = nil")
	}
	other := net.AddHost("other")
	if s0.PortTo(other) != nil {
		t.Error("PortTo(unconnected) != nil")
	}
}
