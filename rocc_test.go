package rocc_test

import (
	"math"
	"testing"

	"rocc"
)

// TestQuickstart exercises the public facade end to end, mirroring the
// README quick-start: build a star, enable RoCC, run, verify fairness.
func TestQuickstart(t *testing.T) {
	engine := rocc.NewEngine()
	star := rocc.BuildStar(engine, 1, 4, rocc.Gbps(40))
	mix := rocc.NewMix(star.Net, 0)
	mix.EnablePort(rocc.ProtoRoCC, star.Bottleneck)
	var flows []*rocc.Flow
	for _, src := range star.Sources {
		flows = append(flows, mix.StartFlow(rocc.ProtoRoCC, src, star.Dst, -1, rocc.Gbps(36)))
	}
	engine.RunUntil(15 * rocc.Millisecond)

	cp := mix.CPs[star.Bottleneck]
	if got := cp.FairRateMbps() / 1000; math.Abs(got-10) > 1 {
		t.Errorf("fair rate %.2f Gb/s, want ~10", got)
	}
	for i, f := range flows {
		gbps := float64(f.DeliveredBytes()) * 8 / engine.Now().Seconds() / 1e9
		if gbps < 7 {
			t.Errorf("flow %d at %.1f Gb/s, want near fair share", i, gbps)
		}
	}
}

func TestPureAlgorithmAPI(t *testing.T) {
	cp := rocc.NewCP(rocc.CPConfig40G())
	for i := 0; i < 10; i++ {
		cp.Update(150_000)
	}
	rp := rocc.NewRP(rocc.RPConfig{DeltaFMbps: 10, RmaxMbps: 40000})
	if !rp.ProcessCNP(cp.FairRateUnits(), rocc.CPKey{Node: 1}) {
		t.Error("first CNP rejected")
	}
	if rp.RateMbps() <= 0 {
		t.Error("no rate installed")
	}
}

func TestControlSystemAPI(t *testing.T) {
	s := rocc.ControlSystem{Alpha: 0.0093, Beta: 0.0937, N: 64, T: 40e-6}
	if pm := s.PhaseMarginDeg(); pm < 20 {
		t.Errorf("phase margin %.1f, want the paper's >20", pm)
	}
}

func TestWorkloadAPI(t *testing.T) {
	if rocc.WebSearch().MeanBytes() <= rocc.FBHadoop().MeanBytes() {
		t.Error("WebSearch should be heavier than FB_Hadoop")
	}
}

func TestTopologiesViaFacade(t *testing.T) {
	engine := rocc.NewEngine()
	if m := rocc.BuildMultiBottleneck(engine, 1); len(m.A) != 5 {
		t.Error("multi-bottleneck shape")
	}
	if a := rocc.BuildAsymmetric(rocc.NewEngine(), 1); len(a.Fast) != 2 {
		t.Error("asymmetric shape")
	}
	ft := rocc.BuildFatTree(rocc.NewEngine(), 1, rocc.PaperFatTree())
	if len(ft.Hosts[0]) != 30 {
		t.Error("fat-tree shape")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if rocc.CPConfigForGbps(25).FmaxMbps != 25000 {
		t.Error("CPConfigForGbps")
	}
	if rocc.CPConfig100G().QrefBytes != 300000 {
		t.Error("CPConfig100G")
	}
	if rocc.Mbps(10) != rocc.Rate(10e6) {
		t.Error("Mbps")
	}
	engine := rocc.NewEngine()
	net := rocc.NewNetwork(engine, 1)
	sw := net.AddSwitch("s", rocc.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, rocc.Gbps(40), 1500*rocc.Nanosecond)
	port, _ := net.Connect(sw, b, rocc.Gbps(40), 1500*rocc.Nanosecond)
	net.ComputeRoutes()
	cp := rocc.EnableRoCC(net, sw, port, rocc.CPOptions{})
	if port.CC != rocc.PortCC(cp) {
		t.Error("EnableRoCC did not install its CP on the port")
	}
	cc := rocc.NewRoCCFlowCC(a, rocc.RPOptions{})
	net.StartFlow(a, b, rocc.FlowConfig{Size: -1, MaxRate: rocc.Gbps(36), CC: cc})
	engine.RunUntil(5 * rocc.Millisecond)
	if cp.FairRateMbps() <= 0 {
		t.Error("EnableRoCC CP inert")
	}
}

// TestBaselinesViaFacade runs each of the seven protocols the facade
// names on the quick-start star, wired the way a downstream user wires
// them: the switch element on the bottleneck, the receiver elements on
// every host, then flows. Each must let every flow through, losslessly
// and within the link's capacity. (How fast each converges is the
// experiments' business: DCQCN and TIMELY ramp up far slower than RoCC.)
func TestBaselinesViaFacade(t *testing.T) {
	protocols := []rocc.Protocol{
		rocc.ProtoRoCC, rocc.ProtoDCQCN, rocc.ProtoDCQCNPI, rocc.ProtoHPCC,
		rocc.ProtoTIMELY, rocc.ProtoQCN, rocc.ProtoDCTCP,
	}
	for _, p := range protocols {
		engine := rocc.NewEngine()
		star := rocc.BuildStar(engine, 1, 4, rocc.Gbps(40))
		mix := rocc.NewMix(star.Net, 8*rocc.Microsecond)
		mix.EnablePort(p, star.Bottleneck)
		mix.AttachReceivers()
		var flows []*rocc.Flow
		for _, src := range star.Sources {
			flows = append(flows, mix.StartFlow(p, src, star.Dst, -1, rocc.Gbps(36)))
		}
		engine.RunUntil(10 * rocc.Millisecond)
		secs := float64(engine.Now()) / float64(rocc.Second)
		var total float64
		for i, f := range flows {
			if star.Net.Flow(f.ID) != f {
				t.Errorf("%s: flow %d not found by its ID", p, i)
			}
			if f.DeliveredBytes() == 0 {
				t.Errorf("%s: flow %d delivered nothing", p, i)
			}
			total += float64(f.DeliveredBytes()) * 8 / secs / 1e9
		}
		if total > 40 {
			t.Errorf("%s: %.1f Gb/s through the 40 Gb/s bottleneck", p, total)
		}
		if drops := star.Net.TotalDrops(); drops != 0 {
			t.Errorf("%s: %d drops on the lossless star", p, drops)
		}
	}
}
