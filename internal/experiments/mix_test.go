package experiments

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// The TestStack… tests check the per-protocol stack a Mix installs for
// one protocol: switch element, receiver hook, flow controller, ACK
// cadence and header overhead.

func TestStackWiresEveryProtocol(t *testing.T) {
	for _, p := range AllProtocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			engine := sim.New()
			star := topology.BuildStar(engine, 1, 3, netsim.Gbps(40))
			mix := NewMix(star.Net, 8*sim.Microsecond)
			mix.Activate(p)
			mix.EnablePort(p, star.Bottleneck)
			mix.AttachReceiver(p, star.Dst)
			if p == ProtoRoCC {
				if mix.CPs[star.Bottleneck] == nil {
					t.Fatal("RoCC CP not registered")
				}
			} else if p != ProtoTIMELY && star.Bottleneck.CC == nil {
				t.Fatal("switch-side element missing")
			}
			if cc := mix.Ops(p).NewFlowCC(star.Net, star.Sources[0]); cc == nil {
				t.Fatal("no flow controller")
			}
			// A short run with real traffic must complete flows and keep
			// the fabric lossless.
			var flows []*netsim.Flow
			for _, src := range star.Sources {
				flows = append(flows, mix.StartFlow(p, src, star.Dst, 200_000, 0))
			}
			engine.RunUntil(20 * sim.Millisecond)
			for i, f := range flows {
				if !f.Done() {
					t.Errorf("flow %d incomplete under %s", i, p)
				}
			}
			if d := star.Net.TotalDrops(); d != 0 {
				t.Errorf("%d drops under %s", d, p)
			}
		})
	}
}

func TestStackAckPolicies(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	cases := map[Protocol]int{
		ProtoRoCC:   0,
		ProtoDCQCN:  0,
		ProtoQCN:    0,
		ProtoHPCC:   1,
		ProtoDCTCP:  1,
		ProtoTIMELY: 16,
	}
	for p, want := range cases {
		mix := NewMix(star.Net, 0)
		if got := mix.Ops(p).AckEvery(star.Sources[0]); got != want {
			t.Errorf("%s: AckEvery = %d, want %d", p, got, want)
		}
	}
}

func TestStackHPCCAddsINTOverhead(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	mix := NewMix(star.Net, 8*sim.Microsecond)
	mix.Activate(ProtoHPCC)
	mix.EnablePort(ProtoHPCC, star.Bottleneck)
	f := mix.StartFlow(ProtoHPCC, star.Sources[0], star.Dst, 10_000, 0)
	engine.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	// 10 packets x 42 B of INT on top of payload+headers.
	wantWire := uint64(10_000 + 10*(netsim.HeaderBytes+INTOverheadBytes))
	if got := star.Dst.RxDataBytes; got != wantWire {
		t.Errorf("wire bytes = %d, want %d (INT overhead)", got, wantWire)
	}
}

func TestStackNoINTOverheadForOthers(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	mix.Activate(ProtoRoCC)
	mix.EnablePort(ProtoRoCC, star.Bottleneck)
	f := mix.StartFlow(ProtoRoCC, star.Sources[0], star.Dst, 10_000, 0)
	engine.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if got := star.Dst.RxDataBytes; got != 10_000+10*netsim.HeaderBytes {
		t.Errorf("wire bytes = %d; unexpected overhead", got)
	}
}

func TestEnablePortRejectsHostPorts(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	defer func() {
		if recover() == nil {
			t.Error("EnablePort on a host NIC did not panic")
		}
	}()
	mix.EnablePort(ProtoRoCC, star.Sources[0].NIC())
}

func TestEnableAllSwitchPorts(t *testing.T) {
	engine := sim.New()
	ft := topology.BuildFatTree(engine, 1, topology.ScaledFatTree(2))
	mix := NewMix(ft.Net, 0)
	mix.Activate(ProtoDCQCN)
	mix.EnableAllSwitchPorts()
	for _, sw := range ft.Net.Switches() {
		for _, port := range sw.Ports() {
			if port.CC == nil {
				t.Fatalf("port %d on %s not enabled", port.Index, sw.Name)
			}
		}
	}
}
