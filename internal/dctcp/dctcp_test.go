package dctcp

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func TestMarkerThreshold(t *testing.T) {
	m := NewMarker(DefaultConfig(40, 10*sim.Microsecond))
	k := DefaultConfig(40, 10*sim.Microsecond).MarkBytes
	below := &netsim.Packet{ECT: true}
	m.OnEnqueue(0, below, k)
	if below.CE {
		t.Error("marked at the threshold (must be strictly above)")
	}
	above := &netsim.Packet{ECT: true}
	m.OnEnqueue(0, above, k+1)
	if !above.CE {
		t.Error("not marked above the threshold")
	}
	nonECT := &netsim.Packet{}
	m.OnEnqueue(0, nonECT, k*10)
	if nonECT.CE {
		t.Error("non-ECT packet marked")
	}
	if m.Marked != 1 {
		t.Errorf("Marked = %d", m.Marked)
	}
}

func TestReceiverEchoesOnlyMarked(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	r := NewReceiver(h)
	if r.OnData(0, &netsim.Packet{Flow: 1, CE: false}) != nil {
		t.Error("echo for unmarked packet")
	}
	echo := r.OnData(0, &netsim.Packet{Flow: 1, Src: 5, CE: true})
	if echo == nil || echo.Dst != 5 || echo.Flow != 1 {
		t.Errorf("echo = %+v", echo)
	}
}

func TestAlphaTracksMarkingFraction(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cc := NewFlowCC(h, DefaultConfig(40, 10*sim.Microsecond))
	// Simulate several fully-marked windows: alpha must rise toward 1
	// and the window must shrink.
	w0 := cc.cwnd
	seq := int64(0)
	for win := 0; win < 20; win++ {
		for i := 0; i < 10; i++ {
			cc.OnSent(0, &netsim.Packet{Seq: seq, Payload: 1000, Size: 1048})
			seq += 1000
		}
		for i := 0; i < 10; i++ {
			cc.OnCNP(0, &netsim.Packet{})
			cc.OnAck(0, &netsim.Packet{AckSeq: seq - int64((9-i)*1000)})
		}
	}
	if cc.alpha < 0.5 {
		t.Errorf("alpha = %v after sustained marking, want high", cc.alpha)
	}
	if cc.cwnd >= w0 {
		t.Errorf("cwnd did not shrink: %v >= %v", cc.cwnd, w0)
	}
	if cc.cwnd < DefaultConfig(40, 10*sim.Microsecond).MinCwnd {
		t.Error("cwnd under floor")
	}
	if cc.Decreases == 0 {
		t.Error("no decrease events")
	}
}

func TestWindowBlocksWhenFull(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cc := NewFlowCC(h, DefaultConfig(40, 10*sim.Microsecond))
	seq := int64(0)
	for {
		_, ok := cc.Allow(0, 1000)
		if !ok {
			break
		}
		cc.OnSent(0, &netsim.Packet{Seq: seq, Payload: 1000, Size: 1048})
		seq += 1000
		if seq > 100_000_000 {
			t.Fatal("window never closed")
		}
	}
	cc.OnAck(0, &netsim.Packet{AckSeq: 5000})
	if _, ok := cc.Allow(0, 1000); !ok {
		t.Error("still blocked after acks")
	}
}

func TestEndToEndStableShallowQueue(t *testing.T) {
	// Two DCTCP flows share a bottleneck: the queue must hover around
	// the marking threshold K (not deeper), with high utilization —
	// DCTCP's signature behaviour.
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	a2 := net.AddHost("a2")
	b := net.AddHost("b")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	net.Connect(a2, sw, netsim.Gbps(40), 1500)
	port, _ := net.Connect(sw, b, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	cfg := DefaultConfig(40, 8*sim.Microsecond)
	port.CC = NewMarker(cfg)
	b.Receiver = NewReceiver(b)
	f1 := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, AckEvery: 1, CC: NewFlowCC(a, cfg)})
	f2 := net.StartFlow(a2, b, netsim.FlowConfig{Size: -1, AckEvery: 1, CC: NewFlowCC(a2, cfg)})
	engine.RunUntil(10 * sim.Millisecond)
	mid := f1.DeliveredBytes() + f2.DeliveredBytes()
	var qSum, qN float64
	tick := engine.NewTicker(100*sim.Microsecond, func() {
		qSum += float64(port.DataQueueBytes())
		qN++
	})
	engine.RunUntil(20 * sim.Millisecond)
	tick.Stop()
	gbps := float64(f1.DeliveredBytes()+f2.DeliveredBytes()-mid) * 8 / 0.010 / 1e9
	if gbps < 30 {
		t.Errorf("aggregate throughput %.1f Gb/s, want near line rate", gbps)
	}
	avgQ := qSum / qN
	if avgQ > float64(cfg.MarkBytes)*3 {
		t.Errorf("avg queue %.0f runaway (K=%d)", avgQ, cfg.MarkBytes)
	}
	if avgQ < 1000 {
		t.Errorf("avg queue %.0f: marking loop apparently inactive", avgQ)
	}
	f1.Stop()
	f2.Stop()
}
