package netsim

import (
	"testing"

	"rocc/internal/sim"
)

// pair builds host—switch—host with the given link rate.
func pair(rate Rate) (*sim.Engine, *Network, *Host, *Host, *Switch) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, rate, 1500*sim.Nanosecond)
	net.Connect(sw, b, rate, 1500*sim.Nanosecond)
	net.ComputeRoutes()
	return engine, net, a, b, sw
}

func TestRateUnits(t *testing.T) {
	if Gbps(40).Gbps() != 40 {
		t.Error("Gbps round trip failed")
	}
	if Mbps(250).Mbps() != 250 {
		t.Error("Mbps round trip failed")
	}
	if got := Gbps(40).TxTime(1000); got != 200 {
		t.Errorf("1000B @ 40G = %v ns, want 200", got)
	}
	if got := Gbps(100).TxTime(1000); got != 80 {
		t.Errorf("1000B @ 100G = %v ns, want 80", got)
	}
	// Ceil behaviour: 1 byte at 100G is 0.08 ns -> 1 ns.
	if got := Gbps(100).TxTime(1); got != 1 {
		t.Errorf("1B @ 100G = %v, want 1 (ceil)", got)
	}
}

func TestRateString(t *testing.T) {
	cases := map[string]Rate{
		"40.00Gb/s":  Gbps(40),
		"250.00Mb/s": Mbps(250),
		"100b/s":     Rate(100),
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestTxTimeZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TxTime with zero rate did not panic")
		}
	}()
	Rate(0).TxTime(100)
}

func TestFlowDeliversExactly(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: 55555})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow not complete")
	}
	if f.DeliveredBytes() != 55555 {
		t.Errorf("delivered %d, want 55555", f.DeliveredBytes())
	}
}

func TestFCTMatchesTheory(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	size := int64(100 * 1000)
	f := net.StartFlow(a, b, FlowConfig{Size: size})
	engine.RunUntil(10 * sim.Millisecond)
	// Store-and-forward over 2 hops: total wire bytes / rate + pipeline.
	packets := (size + MTUPayload - 1) / MTUPayload
	wire := size + packets*HeaderBytes
	serialization := Gbps(40).TxTime(int(wire))
	perHop := Gbps(40).TxTime(MTUPayload+HeaderBytes) + 1500*sim.Nanosecond
	ideal := serialization + perHop + 1500*sim.Nanosecond
	got := f.FCT()
	if got < ideal || got > ideal+ideal/10 {
		t.Errorf("FCT = %v, want within 10%% above %v", got, ideal)
	}
}

func TestOfferedRateCap(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: -1, MaxRate: Gbps(4)})
	engine.RunUntil(10 * sim.Millisecond)
	rate := float64(f.DeliveredBytes()) * 8 / 0.010
	if rate > 4.05e9 || rate < 3.6e9 {
		t.Errorf("delivered rate = %.2f Gb/s, want ~4 (app-paced)", rate/1e9)
	}
	f.Stop()
}

func TestUnboundedFlowStops(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: -1})
	engine.RunUntil(sim.Millisecond)
	f.Stop()
	sent := f.SentBytes()
	engine.RunUntil(2 * sim.Millisecond)
	if f.SentBytes() != sent {
		t.Error("flow kept sending after Stop")
	}
	if net.ActiveFlowCount() != 0 {
		t.Error("stopped flow still registered")
	}
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	// With NoCC, the NIC round-robin on the shared source gives equal
	// shares to two flows from one host.
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	c := net.AddHost("c")
	net.Connect(a, sw, Gbps(40), 1500)
	net.Connect(sw, b, Gbps(40), 1500)
	net.Connect(sw, c, Gbps(40), 1500)
	net.ComputeRoutes()
	f1 := net.StartFlow(a, b, FlowConfig{Size: -1})
	f2 := net.StartFlow(a, c, FlowConfig{Size: -1})
	engine.RunUntil(5 * sim.Millisecond)
	d1, d2 := f1.DeliveredBytes(), f2.DeliveredBytes()
	ratio := float64(d1) / float64(d2)
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("round-robin shares unequal: %d vs %d", d1, d2)
	}
}

func TestSelfFlowPanics(t *testing.T) {
	_, net, a, _, _ := pair(Gbps(40))
	defer func() {
		if recover() == nil {
			t.Error("self-flow did not panic")
		}
	}()
	net.StartFlow(a, a, FlowConfig{Size: 1000})
}

func TestPortStrictPriorityPop(t *testing.T) {
	// Direct unit test of the per-class strict priority: with ctrl, ack
	// and data all queued, pops come out in class order.
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	b := net.AddHost("b")
	p, _ := net.Connect(sw, b, Gbps(1), 1500)
	net.ComputeRoutes()
	// Stuff queues directly while the port is busy with a first packet.
	p.Enqueue(&Packet{Kind: KindData, Cls: ClassData, Size: MTUPayload, Dst: b.ID()})
	p.Enqueue(&Packet{Kind: KindData, Cls: ClassData, Size: MTUPayload, Dst: b.ID()})
	p.Enqueue(&Packet{Kind: KindAck, Cls: ClassAck, Size: AckBytes, Dst: b.ID()})
	p.Enqueue(&Packet{Kind: KindCNP, Cls: ClassCtrl, Size: CNPBytes, Dst: b.ID()})
	// First pop already happened (a data packet, the queue was empty on
	// arrival). The next pops must be ctrl, then ack, then data.
	order := []*Packet{p.nextPacket(), p.nextPacket(), p.nextPacket()}
	want := []Class{ClassCtrl, ClassAck, ClassData}
	for i, pkt := range order {
		if pkt == nil || pkt.Cls != want[i] {
			t.Fatalf("pop %d = %+v, want class %d", i, pkt, want[i])
		}
	}
	_ = engine
}

func TestCtrlClassBypassesDataBacklog(t *testing.T) {
	// Quantitative version: with a standing data backlog, a CNP's
	// one-way latency must stay near serialization+propagation, far
	// below the data queueing delay.
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, Gbps(10), 1500)
	swPort, _ := net.Connect(sw, b, Gbps(1), 1500) // bottleneck builds a queue
	net.ComputeRoutes()
	f := net.StartFlow(a, b, FlowConfig{Size: -1})
	engine.RunUntil(2 * sim.Millisecond)
	backlog := swPort.QueueBytes(ClassData)
	if backlog < 100*KB {
		t.Fatalf("backlog only %d bytes; topology wrong", backlog)
	}
	sent := engine.Now()
	sw.Inject(&Packet{Flow: f.ID, Src: sw.ID(), Dst: b.ID(), Kind: KindCNP, Cls: ClassCtrl, Size: CNPBytes})
	for b.CNPsRx == 0 && engine.Now() < sent+sim.Millisecond {
		engine.Step()
	}
	latency := engine.Now() - sent
	dataDelay := Rate(1e9).TxTime(backlog)
	if latency > dataDelay/10 {
		t.Errorf("CNP latency %v vs data backlog delay %v: not prioritized", latency, dataDelay)
	}
	f.Stop()
}
