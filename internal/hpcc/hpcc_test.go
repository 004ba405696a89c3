package hpcc

import (
	"math"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func fixture() (*sim.Engine, *netsim.Network, *netsim.Host, *FlowCC, Config) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cfg := DefaultConfig(40, 10*sim.Microsecond)
	cc := NewFlowCC(h, cfg)
	return engine, net, h, cc, cfg
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(40, 10*sim.Microsecond)
	if cfg.Eta != 0.95 || cfg.MaxStage != 5 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.WAIBytes <= 0 {
		t.Error("WAI not positive")
	}
}

func TestInitialWindowIsBDP(t *testing.T) {
	_, _, _, cc, _ := fixture()
	bdp := 40e9 / 8 * 10e-6 // 50 KB
	if math.Abs(cc.w-bdp) > 1 {
		t.Errorf("W0 = %v, want %v", cc.w, bdp)
	}
}

func TestWindowBlocksAllow(t *testing.T) {
	_, _, _, cc, _ := fixture()
	// Fill the window via OnSent without acking.
	seq := int64(0)
	for {
		_, ok := cc.Allow(0, 1000)
		if !ok {
			break
		}
		cc.OnSent(0, &netsim.Packet{Seq: seq, Payload: 1000, Size: 1048})
		seq += 1000
		if seq > 10_000_000 {
			t.Fatal("window never closed")
		}
	}
	if float64(seq) < cc.w-1000 {
		t.Errorf("blocked after only %d bytes with W=%v", seq, cc.w)
	}
	// An ack opens the window again.
	cc.OnAck(0, &netsim.Packet{AckSeq: 2000})
	if _, ok := cc.Allow(0, 1000); !ok {
		t.Error("still blocked after cumulative ack")
	}
}

func TestStamperAppendsPerHop(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	h := net.AddHost("h")
	port, _ := net.Connect(sw, h, netsim.Gbps(40), 1500)
	st := NewStamper(port)
	pkt := &netsim.Packet{Kind: netsim.KindData, Size: 1048}
	st.OnDequeue(5, pkt, 3000)
	st.OnDequeue(6, pkt, 4000) // second "hop" (same stamper for the test)
	recs := pkt.INT()
	if len(recs) != 2 {
		t.Fatalf("INT records = %d, want 2", len(recs))
	}
	if recs[0].QLen != 3000 || recs[0].TS != 5 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[0].Rate != netsim.Gbps(40) {
		t.Error("bandwidth not stamped")
	}
}

// ackWithINT fabricates an INT echo for a single-hop path.
func ackWithINT(ackSeq int64, txBytes uint64, qlen int, ts sim.Time) *netsim.Packet {
	ack := &netsim.Packet{Kind: netsim.KindAck, AckSeq: ackSeq}
	ack.SetEchoINT([]netsim.INTRecord{{
		TxBytes: txBytes,
		QLen:    qlen,
		TS:      ts,
		Rate:    netsim.Gbps(40),
	}})
	return ack
}

func TestCongestedHopShrinksWindow(t *testing.T) {
	_, _, _, cc, _ := fixture()
	w0 := cc.w
	// Baseline sample, then a sample showing a saturated link: the link
	// transmitted at full rate over the interval AND holds a deep queue.
	cc.OnAck(0, ackWithINT(1000, 0, 100000, 0))
	dt := 10 * sim.Microsecond
	bytesAtLineRate := uint64(40e9 / 8 * dt.Seconds())
	cc.OnAck(dt, ackWithINT(2000, bytesAtLineRate, 100000, dt))
	if cc.w >= w0 {
		t.Errorf("window did not shrink under congestion: %v >= %v", cc.w, w0)
	}
}

func TestIdleHopGrowsWindowAdditively(t *testing.T) {
	_, _, _, cc, cfg := fixture()
	cc.OnAck(0, ackWithINT(1000, 0, 0, 0))
	w0 := cc.w
	dt := 10 * sim.Microsecond
	// Nearly idle link: tiny tx, empty queue.
	cc.OnAck(dt, ackWithINT(2000, 1000, 0, dt))
	w1 := cc.w
	if w1 <= w0 {
		t.Errorf("window did not grow on idle path: %v <= %v", w1, w0)
	}
	if w1-w0 > 2*cfg.WAIBytes+1 {
		t.Errorf("idle growth %v exceeds additive step %v", w1-w0, cfg.WAIBytes)
	}
}

func TestMaxStageForcesMultiplicativeUpdate(t *testing.T) {
	_, _, _, cc, cfg := fixture()
	cc.OnAck(0, ackWithINT(500, 0, 0, 0))
	dt := 10 * sim.Microsecond
	now := dt
	seq := int64(1000)
	// Keep the path idle: after MaxStage additive rounds the controller
	// must switch to the multiplicative branch (which with U ~ 0 jumps
	// toward Wc/(U/eta), clamped by the 2xBDP cap).
	for i := 0; i < cfg.MaxStage+3; i++ {
		// New RTT round: ack beyond lastUpdateSeq with fresh sentHigh.
		cc.OnSent(now, &netsim.Packet{Seq: seq, Payload: 1000, Size: 1048})
		cc.OnAck(now, ackWithINT(seq+1000, uint64(i+1)*1000, 0, now))
		seq += 1000
		now += dt
	}
	maxW := cfg.RmaxMbps * 1e6 / 8 * cfg.BaseRTT.Seconds() * 2
	if math.Abs(cc.w-maxW) > maxW/10 {
		t.Errorf("window = %v, want near the 2xBDP cap %v after stages", cc.w, maxW)
	}
}

func TestWindowFloorAtOnePacket(t *testing.T) {
	_, _, _, cc, _ := fixture()
	cc.OnAck(0, ackWithINT(100, 0, 1_000_000, 0))
	dt := 10 * sim.Microsecond
	huge := uint64(40e9) // absurd tx count: U explodes
	for i := 1; i < 10; i++ {
		cc.OnAck(sim.Time(i)*dt, ackWithINT(int64(100*i), huge*uint64(i), 1_000_000, sim.Time(i)*dt))
	}
	if cc.w < netsim.MTUPayload {
		t.Errorf("window %v below one packet", cc.w)
	}
}

func TestPacingRateTracksWindow(t *testing.T) {
	_, _, _, cc, cfg := fixture()
	r := cc.CurrentRate()
	want := netsim.Rate(cc.w * 8 / cfg.BaseRTT.Seconds())
	if want > netsim.Mbps(cfg.RmaxMbps) {
		want = netsim.Mbps(cfg.RmaxMbps)
	}
	if math.Abs(float64(r-want)) > 1 {
		t.Errorf("rate = %v, want %v", r, want)
	}
}

func TestHopCountChangeResetsBaseline(t *testing.T) {
	_, _, _, cc, _ := fixture()
	cc.OnAck(0, ackWithINT(100, 0, 0, 0))
	w0 := cc.w
	// Two-hop echo after a one-hop baseline: must re-baseline, not panic,
	// and must not move the window.
	twoHop := &netsim.Packet{AckSeq: 200}
	twoHop.SetEchoINT([]netsim.INTRecord{
		{TxBytes: 1, QLen: 0, TS: 1, Rate: netsim.Gbps(40)},
		{TxBytes: 1, QLen: 0, TS: 1, Rate: netsim.Gbps(100)},
	})
	cc.OnAck(5, twoHop)
	if cc.w != w0 {
		t.Error("window moved on re-baseline")
	}
}

func TestEndToEndUtilizationNearEta(t *testing.T) {
	// One flow through one bottleneck: HPCC should converge near eta x C.
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	swPort, _ := net.Connect(sw, b, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	swPort.CC = NewStamper(swPort)
	cfg := DefaultConfig(40, 8*sim.Microsecond)
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, AckEvery: 1, CC: NewFlowCC(a, cfg)})
	engine.RunUntil(10 * sim.Millisecond)
	mid := f.DeliveredBytes()
	engine.RunUntil(20 * sim.Millisecond)
	gbps := float64(f.DeliveredBytes()-mid) * 8 / 0.010 / 1e9
	if gbps < 30 || gbps > 40 {
		t.Errorf("steady throughput = %.1f Gb/s, want ~eta*40", gbps)
	}
	if q := swPort.DataQueueBytes(); q > 50*netsim.KB {
		t.Errorf("HPCC queue = %d bytes, want shallow", q)
	}
	f.Stop()
}
