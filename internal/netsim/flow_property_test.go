package netsim

import (
	"testing"
	"testing/quick"

	"rocc/internal/sim"
)

// Property: any flow size in (0, 1MB] is delivered exactly once, byte for
// byte, with and without reliability.
func TestFlowDeliveryProperty(t *testing.T) {
	f := func(sizeRaw uint32, reliable bool) bool {
		size := int64(sizeRaw%1_000_000) + 1
		engine, net, a, b, _ := pair(Gbps(40))
		fl := net.StartFlow(a, b, FlowConfig{Size: size, Reliable: reliable})
		engine.RunUntil(50 * sim.Millisecond)
		return fl.Done() && fl.DeliveredBytes() == size && fl.SentBytes() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with K concurrent equal flows from distinct sources through
// one bottleneck (no CC), the bottleneck is fully utilized and nothing is
// lost (PFC keeps it lossless).
func TestIncastLosslessProperty(t *testing.T) {
	f := func(kRaw uint8, seed int64) bool {
		k := int(kRaw%6) + 2
		engine := sim.New()
		net := New(engine, seed)
		sw := net.AddSwitch("s", BufferConfig{PFCEnabled: true, PFCThreshold: 200 * KB})
		dst := net.AddHost("dst")
		size := int64(300_000)
		var flows []*Flow
		for i := 0; i < k; i++ {
			h := net.AddHost("src")
			net.Connect(h, sw, Gbps(40), 1500)
			flows = append(flows, nil) // placeholder; filled after routing
		}
		net.Connect(sw, dst, Gbps(40), 1500)
		net.ComputeRoutes()
		for i, h := range net.Hosts()[1 : k+1] {
			flows[i] = net.StartFlow(h, dst, FlowConfig{Size: size})
		}
		engine.RunUntil(100 * sim.Millisecond)
		for _, fl := range flows {
			if fl == nil || !fl.Done() || fl.DeliveredBytes() != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the application-rate pacer never overshoots its budget by
// more than one packet's worth over any run prefix.
func TestAppPacerNeverExceedsBudget(t *testing.T) {
	f := func(mbpsRaw uint16, msRaw uint8) bool {
		mbps := float64(mbpsRaw%2000) + 50
		dur := sim.Time(int(msRaw%10)+1) * sim.Millisecond
		engine, net, a, b, _ := pair(Gbps(40))
		fl := net.StartFlow(a, b, FlowConfig{Size: -1, MaxRate: Mbps(mbps)})
		engine.RunUntil(dur)
		budget := mbps * 1e6 / 8 * dur.Seconds()
		sent := float64(fl.SentBytes())
		fl.Stop()
		// Wire overhead means payload sent is at most the wire budget.
		return sent <= budget+MTUPayload+HeaderBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestManyFlowsOneHostAllComplete(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	net.Connect(a, sw, Gbps(40), 1500)
	var dsts []*Host
	for i := 0; i < 8; i++ {
		d := net.AddHost("d")
		net.Connect(sw, d, Gbps(40), 1500)
		dsts = append(dsts, d)
	}
	net.ComputeRoutes()
	var flows []*Flow
	for i := 0; i < 64; i++ {
		flows = append(flows, net.StartFlow(a, dsts[i%len(dsts)], FlowConfig{Size: int64(1000 * (i + 1))}))
	}
	engine.RunUntil(50 * sim.Millisecond)
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
	}
	if got := len(a.flows); got != 0 {
		t.Errorf("host still schedules %d flows after completion", got)
	}
}

func TestAckEveryCadence(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	var acks int
	size := int64(16 * MTUPayload)
	f := net.StartFlow(a, b, FlowConfig{Size: size, AckEvery: 4, CC: ackCounter{&acks}})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	// 16 packets, one ack per 4: exactly 4 acks.
	if acks != 4 {
		t.Errorf("acks = %d, want 4", acks)
	}
}

type ackCounter struct{ n *int }

func (a ackCounter) Allow(now sim.Time, payload int) (sim.Time, bool) { return now, true }
func (a ackCounter) OnSent(sim.Time, *Packet)                         {}
func (a ackCounter) OnAck(now sim.Time, pkt *Packet)                  { *a.n++ }
func (a ackCounter) OnCNP(sim.Time, *Packet)                          {}
func (a ackCounter) CurrentRate() Rate                                { return Rate(1e15) }

func TestLastPacketAlwaysAcked(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	var acks int
	// 5 packets with AckEvery=4: acks at packet 4 and at the last packet.
	f := net.StartFlow(a, b, FlowConfig{Size: int64(5 * MTUPayload), AckEvery: 4, CC: ackCounter{&acks}})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if acks != 2 {
		t.Errorf("acks = %d, want 2 (cadence + final)", acks)
	}
}

func TestEchoTSRoundTrip(t *testing.T) {
	engine, net, a, b, _ := pair(Gbps(40))
	var rtts []sim.Time
	cc := &rttProbe{engine: engine, rtts: &rtts}
	f := net.StartFlow(a, b, FlowConfig{Size: 100 * MTUPayload, AckEvery: 1, CC: cc})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if len(rtts) == 0 {
		t.Fatal("no RTT samples")
	}
	// Base RTT: 2 hops out (~200ns+1500ns each) + ack back. Must be
	// positive and under 100us on an idle fabric.
	for _, r := range rtts {
		if r <= 0 || r > 100*sim.Microsecond {
			t.Fatalf("implausible RTT %v", r)
		}
	}
}

type rttProbe struct {
	engine *sim.Engine
	rtts   *[]sim.Time
}

func (p *rttProbe) Allow(now sim.Time, payload int) (sim.Time, bool) { return now, true }
func (p *rttProbe) OnSent(sim.Time, *Packet)                         {}
func (p *rttProbe) OnAck(now sim.Time, pkt *Packet) {
	if pkt.EchoTS > 0 {
		*p.rtts = append(*p.rtts, now-pkt.EchoTS)
	}
}
func (p *rttProbe) OnCNP(sim.Time, *Packet) {}
func (p *rttProbe) CurrentRate() Rate       { return Rate(1e15) }
