package netsim

import (
	"testing"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// TestPausedForAccounting: a port's pause span reads the in-progress
// pause mid-pause (the Fig 17b-adjacent undercount regression), the
// network's longest span takes the whole interval once it resumes, and
// a second resume changes nothing.
func TestPausedForAccounting(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	h := net.AddHost("h")
	net.Connect(sw, h, Gbps(40), 1500)
	port := sw.Port(0)
	port.SetPaused(true)
	engine.At(60*sim.Microsecond, func() {
		if got := port.CurrentPauseSpan(); got != 60*sim.Microsecond {
			t.Errorf("mid-pause CurrentPauseSpan = %v, want 60us", got)
		}
		if got := net.LongestPauseSpan(); got != 60*sim.Microsecond {
			t.Errorf("mid-pause LongestPauseSpan = %v, want 60us", got)
		}
	})
	engine.At(100*sim.Microsecond, func() { port.SetPaused(false) })
	engine.RunUntil(200 * sim.Microsecond)
	if port.CurrentPauseSpan() != 0 || net.LongestPauseSpan() != 100*sim.Microsecond {
		t.Errorf("after resume: CurrentPauseSpan = %v, LongestPauseSpan = %v, want 0, 100us",
			port.CurrentPauseSpan(), net.LongestPauseSpan())
	}
	port.SetPaused(false) // idempotent
	if net.LongestPauseSpan() != 100*sim.Microsecond {
		t.Error("double unpause changed accounting")
	}
}

func TestInjectWithoutRoutePanics(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	defer func() {
		if recover() == nil {
			t.Error("Inject without route did not panic")
		}
	}()
	sw.Inject(&Packet{Dst: 99, Kind: KindCNP, Cls: ClassCtrl, Size: 64})
}

func TestNetworkCounters(t *testing.T) {
	engine, net, srcs, dst, sw, _ := congested(BufferConfig{TotalBytes: 30 * KB})
	f := net.StartFlow(srcs[0], dst, FlowConfig{Size: -1})
	net.StartFlow(srcs[1], dst, FlowConfig{Size: -1})
	engine.RunUntil(sim.Millisecond)
	if net.TotalDrops() != sw.Drops {
		t.Error("TotalDrops does not match the switch")
	}
	if net.TotalPFCFrames() != 0 {
		t.Error("PFC frames counted with PFC disabled")
	}
	if net.ActiveFlowCount() != 2 {
		t.Errorf("ActiveFlowCount = %d, want 2", net.ActiveFlowCount())
	}
	f.Stop()
	engine.RunUntil(2 * sim.Millisecond)
	if net.ActiveFlowCount() != 1 {
		t.Errorf("ActiveFlowCount after stop = %d, want 1", net.ActiveFlowCount())
	}
}

func TestCompletedFlowStaysAddressableBriefly(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: 1000})
	engine.RunUntil(50 * sim.Microsecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if net.Flow(f.ID) == nil {
		t.Error("flow unregistered before the grace period")
	}
	engine.RunUntil(engine.Now() + removeGrace + sim.Microsecond)
	if net.Flow(f.ID) != nil {
		t.Error("flow still registered after the grace period")
	}
}

func TestExtraHeaderChargedOnWire(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: 5000, ExtraHeader: 42})
	engine.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	want := uint64(5000 + 5*(HeaderBytes+42))
	if b.RxDataBytes != want {
		t.Errorf("wire bytes = %d, want %d", b.RxDataBytes, want)
	}
}

func TestNoCCBehaviour(t *testing.T) {
	var cc NoCC
	at, ok := cc.Allow(123, 1000)
	if !ok || at != 123 {
		t.Error("NoCC must always allow immediately")
	}
	if cc.CurrentRate() <= Gbps(1000) {
		t.Error("NoCC rate should be effectively unlimited")
	}
	cc.OnSent(0, nil)
	cc.OnAck(0, nil)
	cc.OnCNP(0, nil) // no-ops must not panic
}

func TestPacerConsumeAdvances(t *testing.T) {
	var p Pacer
	now := sim.Time(1000)
	if p.Next(now) != now {
		t.Error("fresh pacer should be immediately eligible")
	}
	p.Consume(now, Gbps(8), 1000) // 1 us per 1000B at 8G
	if got := p.Next(now); got != now+sim.Microsecond {
		t.Errorf("next = %v, want now+1us", got)
	}
	p.Reset()
	if p.Next(now) != now {
		t.Error("reset pacer not immediately eligible")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{KindData: "data", KindAck: "ack", KindCNP: "cnp", KindPause: "pause", Kind(99): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestConnectUnknownNodeTypePanics(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	h := net.AddHost("h")
	defer func() {
		if recover() == nil {
			t.Error("unknown node type did not panic")
		}
	}()
	net.Connect(h, fakeNode{}, Gbps(1), 1)
}

type fakeNode struct{}

func (fakeNode) ID() NodeID                 { return 999 }
func (fakeNode) Ports() []*Port             { return nil }
func (fakeNode) Arrive(pkt *Packet, in int) {}

// TestTracerPauseEvents checks that the flight recorder traces PFC:
// under congestion the upstream sender's NIC is paused and resumed, and
// each completed pause lands as a pfc/pause span on that port.
func TestTracerPauseEvents(t *testing.T) {
	engine, net, srcs, dst, _, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 40 * KB,
	})
	rec := telemetry.NewRecorder(1 << 14)
	net.SetTelemetry(telemetry.New(), rec)
	f1 := net.StartFlow(srcs[0], dst, FlowConfig{Size: -1})
	f2 := net.StartFlow(srcs[1], dst, FlowConfig{Size: -1})
	engine.RunUntil(2 * sim.Millisecond)
	f1.Stop()
	f2.Stop()
	in := srcs[0].NIC()
	spans := 0
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindSpan && e.Cat == "pfc" && e.Name == "pause" &&
			e.Node == int64(srcs[0].ID()) && e.Tid == int64(in.Index) {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("no pfc/pause span recorded on %s's NIC under PFC (%d events retained)", srcs[0].Name, len(rec.Events()))
	}
}
