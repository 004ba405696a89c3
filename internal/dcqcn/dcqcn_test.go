package dcqcn

import (
	"math"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func TestDefaultConfigScaling(t *testing.T) {
	c40 := DefaultConfig(40)
	if c40.RAIMbps != 40 || c40.RHAIMbps != 400 {
		t.Errorf("40G steps = %v/%v", c40.RAIMbps, c40.RHAIMbps)
	}
	if c40.KminBytes != 40000 || c40.KmaxBytes != 200000 {
		t.Errorf("40G marking band = %d..%d", c40.KminBytes, c40.KmaxBytes)
	}
	c100 := DefaultConfig(100)
	if c100.KminBytes != 100000 || c100.RAIMbps != 100 {
		t.Errorf("100G scaling wrong: %+v", c100)
	}
	c10 := DefaultConfig(10)
	if c10.RAIMbps != 40 {
		t.Errorf("sub-40G must not scale down: %v", c10.RAIMbps)
	}
}

func TestMarkerZones(t *testing.T) {
	cfg := DefaultConfig(40)
	m := NewMarker(cfg, sim.NewRand(1))
	mark := func(qlen int, n int) int {
		marked := 0
		for i := 0; i < n; i++ {
			pkt := &netsim.Packet{ECT: true, Kind: netsim.KindData}
			m.OnEnqueue(0, pkt, qlen)
			if pkt.CE {
				marked++
			}
		}
		return marked
	}
	if got := mark(cfg.KminBytes, 1000); got != 0 {
		t.Errorf("marked %d below Kmin", got)
	}
	if got := mark(cfg.KmaxBytes, 1000); got != 1000 {
		t.Errorf("marked %d/1000 above Kmax", got)
	}
	// Midpoint: probability Pmax/2 = 0.5%; binomial over 20000 trials.
	mid := (cfg.KminBytes + cfg.KmaxBytes) / 2
	got := mark(mid, 20000)
	if got < 40 || got > 180 {
		t.Errorf("midpoint marks = %d/20000, want ~100", got)
	}
}

func TestMarkerIgnoresNonECT(t *testing.T) {
	m := NewMarker(DefaultConfig(40), sim.NewRand(1))
	pkt := &netsim.Packet{ECT: false}
	m.OnEnqueue(0, pkt, 10_000_000)
	if pkt.CE {
		t.Error("non-ECT packet marked")
	}
}

func TestReceiverCNPModeration(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	r := NewReceiver(DefaultConfig(40), h)

	marked := &netsim.Packet{Flow: 7, Src: 3, CE: true, Kind: netsim.KindData}
	if cnp := r.OnData(0, marked); cnp == nil {
		t.Fatal("no CNP for first marked packet")
	} else {
		if cnp.Kind != netsim.KindCNP || cnp.Dst != 3 || cnp.Flow != 7 {
			t.Errorf("CNP fields wrong: %+v", cnp)
		}
		if cnp.Cls != netsim.ClassCtrl {
			t.Error("CNP not prioritized")
		}
	}
	// Within the interval: suppressed.
	if cnp := r.OnData(49*sim.Microsecond, marked); cnp != nil {
		t.Error("CNP not moderated within 50us")
	}
	// After the interval: allowed.
	if cnp := r.OnData(51*sim.Microsecond, marked); cnp == nil {
		t.Error("CNP suppressed after the interval")
	}
	// Other flows moderate independently.
	other := &netsim.Packet{Flow: 8, Src: 3, CE: true, Kind: netsim.KindData}
	if cnp := r.OnData(52*sim.Microsecond, other); cnp == nil {
		t.Error("unrelated flow's CNP suppressed")
	}
	// Unmarked packets never generate CNPs.
	clean := &netsim.Packet{Flow: 9, Src: 3, CE: false}
	if cnp := r.OnData(sim.Second, clean); cnp != nil {
		t.Error("CNP for unmarked packet")
	}
}

func newSenderFixture() (*sim.Engine, *netsim.Host, *FlowCC) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cc := NewFlowCC(h, DefaultConfig(40))
	return engine, h, cc
}

func TestSenderCutSequence(t *testing.T) {
	_, _, cc := newSenderFixture()
	if cc.CurrentRate().Mbps() != 40000 {
		t.Fatalf("initial rate = %v", cc.CurrentRate().Mbps())
	}
	cnp := &netsim.Packet{Kind: netsim.KindCNP}
	cc.OnCNP(0, cnp)
	// First CNP: alpha = (1-g)·1 + g = 1 -> wait, alpha starts at 1 and
	// stays ~1, so the first cut is ~Rc/2.
	r1 := cc.CurrentRate().Mbps()
	if math.Abs(r1-20000) > 100 {
		t.Errorf("rate after first cut = %v, want ~20000", r1)
	}
	cc.OnCNP(0, cnp)
	r2 := cc.CurrentRate().Mbps()
	if r2 >= r1 {
		t.Error("second CNP did not cut further")
	}
}

func TestSenderRateFloor(t *testing.T) {
	_, _, cc := newSenderFixture()
	cnp := &netsim.Packet{Kind: netsim.KindCNP}
	for i := 0; i < 100; i++ {
		cc.OnCNP(0, cnp)
	}
	if got := cc.CurrentRate().Mbps(); got < 10 {
		t.Errorf("rate %v below floor", got)
	}
}

func TestSenderTimerRecovery(t *testing.T) {
	engine, _, cc := newSenderFixture()
	cc.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP})
	cut := cc.CurrentRate().Mbps()
	// Fast recovery: each timer tick moves Rc halfway back to Rt.
	engine.RunUntil(3 * 55 * sim.Microsecond)
	r := cc.CurrentRate().Mbps()
	if r <= cut {
		t.Errorf("no recovery: %v <= %v", r, cut)
	}
	if r > 40000 {
		t.Errorf("rate exceeded line rate: %v", r)
	}
	// Long idle: hyper increase drives the rate back to line rate.
	engine.RunUntil(20 * sim.Millisecond)
	if got := cc.CurrentRate().Mbps(); got != 40000 {
		t.Errorf("rate after long recovery = %v, want line rate", got)
	}
	cc.Stop()
}

func TestSenderAlphaDecays(t *testing.T) {
	engine, _, cc := newSenderFixture()
	cnp := &netsim.Packet{Kind: netsim.KindCNP}
	for i := 0; i < 10; i++ {
		cc.OnCNP(0, cnp)
	}
	// After many idle alpha periods, a new CNP cuts much less than 1/2.
	engine.RunUntil(60 * sim.Millisecond)
	before := cc.CurrentRate().Mbps()
	cc.OnCNP(engine.Now(), cnp)
	after := cc.CurrentRate().Mbps()
	cutFraction := 1 - after/before
	if cutFraction > 0.1 {
		t.Errorf("cut fraction %v after alpha decay, want small", cutFraction)
	}
	cc.Stop()
}

func TestSenderByteCounterStage(t *testing.T) {
	engine, _, cc := newSenderFixture()
	cc.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP})
	cut := cc.CurrentRate().Mbps()
	// Push a byte counter's worth of traffic through OnSent.
	pkt := &netsim.Packet{Size: 1048, Seq: 0, Payload: 1000}
	for sent := int64(0); sent < 10_000_000; sent += 1048 {
		cc.OnSent(0, pkt)
	}
	if cc.stageByte == 0 {
		t.Error("byte counter stage never advanced")
	}
	if got := cc.CurrentRate().Mbps(); got <= cut {
		t.Errorf("rate %v after the byte counter, want above the cut rate %v", got, cut)
	}
	_ = engine
	cc.Stop()
}

func TestStopCancelsTimers(t *testing.T) {
	engine, h, cc := newSenderFixture()
	cc.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP})
	cc.Stop()
	r := cc.CurrentRate().Mbps()
	engine.RunUntil(10 * sim.Millisecond)
	if cc.CurrentRate().Mbps() != r {
		t.Error("timers still firing after Stop")
	}
	if n := h.Network().Group().Pending(); n != 0 {
		t.Errorf("%d events still pending after Stop", n)
	}
}

func TestPacingHonorsRate(t *testing.T) {
	_, _, cc := newSenderFixture()
	cc.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP}) // 20G
	var now sim.Time
	bytes := 0
	for i := 0; i < 100; i++ {
		at, ok := cc.Allow(now, 1000)
		if !ok {
			t.Fatal("rate-based CC blocked")
		}
		if at > now {
			now = at
		}
		cc.OnSent(now, &netsim.Packet{Size: 1048})
		bytes += 1048
	}
	rate := float64(bytes) * 8 / now.Seconds()
	if math.Abs(rate-20e9)/20e9 > 0.02 {
		t.Errorf("paced at %.2f Gb/s, want ~20", rate/1e9)
	}
}
