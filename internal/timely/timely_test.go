package timely

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func fixture() (*sim.Engine, *FlowCC, Config) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	h := net.AddHost("h")
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	net.Connect(h, sw, netsim.Gbps(40), 1500)
	cfg := DefaultConfig(40)
	return engine, NewFlowCC(h, cfg), cfg
}

// ack fabricates an RTT sample: EchoTS = now - rtt.
func ack(now, rtt sim.Time) *netsim.Packet {
	return &netsim.Packet{Kind: netsim.KindAck, EchoTS: now - rtt}
}

func TestFirstSampleOnlyPrimes(t *testing.T) {
	_, cc, cfg := fixture()
	cc.OnAck(100*sim.Microsecond, ack(100*sim.Microsecond, 30*sim.Microsecond))
	if cc.CurrentRate().Mbps() != cfg.RmaxMbps {
		t.Error("rate moved on the priming sample")
	}
}

func TestBelowTlowAlwaysIncreases(t *testing.T) {
	_, cc, cfg := fixture()
	now := sim.Time(0)
	cc.rate = 10000 // start mid-range
	cc.OnAck(now, ack(now, 15*sim.Microsecond))
	before := cc.CurrentRate().Mbps()
	// Rising RTT but still below Tlow: additive increase regardless of
	// gradient.
	now += 100 * sim.Microsecond
	cc.OnAck(now, ack(now, 19*sim.Microsecond))
	after := cc.CurrentRate().Mbps()
	if after != before+cfg.DeltaMbps {
		t.Errorf("rate %v -> %v, want +delta below Tlow", before, after)
	}
}

func TestAboveThighDecreasesProportionally(t *testing.T) {
	_, cc, cfg := fixture()
	now := sim.Time(0)
	cc.rate = 20000
	cc.OnAck(now, ack(now, 100*sim.Microsecond))
	before := cc.CurrentRate().Mbps()
	now += 100 * sim.Microsecond
	rtt := 300 * sim.Microsecond // 2x Thigh
	cc.OnAck(now, ack(now, rtt))
	after := cc.CurrentRate().Mbps()
	want := before * (1 - cfg.Beta*(1-cfg.Thigh.Seconds()/rtt.Seconds()))
	if after <= before*0.5 || after >= before {
		t.Errorf("rate %v -> %v, want ~%v", before, after, want)
	}
}

func TestGradientDecreaseOnRisingRTT(t *testing.T) {
	_, cc, _ := fixture()
	cc.rate = 20000
	now := sim.Time(0)
	rtt := 40 * sim.Microsecond
	cc.OnAck(now, ack(now, rtt))
	// Steadily rising RTTs in the gradient band.
	for i := 0; i < 5; i++ {
		now += 50 * sim.Microsecond
		rtt += 10 * sim.Microsecond
		cc.OnAck(now, ack(now, rtt))
	}
	if cc.CurrentRate().Mbps() >= 20000 {
		t.Error("rate did not fall with a positive RTT gradient")
	}
}

func TestHAIAfterConsecutiveNegativeGradients(t *testing.T) {
	_, cc, cfg := fixture()
	cc.rate = 10000
	now := sim.Time(0)
	rtt := 120 * sim.Microsecond
	cc.OnAck(now, ack(now, rtt))
	var increments []float64
	prev := cc.rate
	for i := 0; i < cfg.HAICount+2; i++ {
		now += 50 * sim.Microsecond
		rtt -= 2 * sim.Microsecond // falling RTT, still above Tlow
		cc.OnAck(now, ack(now, rtt))
		increments = append(increments, cc.rate-prev)
		prev = cc.rate
	}
	last := increments[len(increments)-1]
	first := increments[0]
	if last <= first {
		t.Errorf("no HAI: increments %v", increments)
	}
	if last != cfg.DeltaMbps*float64(cfg.HAICount) {
		t.Errorf("HAI step = %v, want %v", last, cfg.DeltaMbps*float64(cfg.HAICount))
	}
}

func TestRateStaysInBounds(t *testing.T) {
	_, cc, cfg := fixture()
	now := sim.Time(0)
	cc.OnAck(now, ack(now, 50*sim.Microsecond))
	for i := 0; i < 500; i++ {
		now += 50 * sim.Microsecond
		rtt := sim.Time(10+(i*37)%500) * sim.Microsecond
		cc.OnAck(now, ack(now, rtt))
		r := cc.CurrentRate().Mbps()
		if r < cfg.RminMbps || r > cfg.RmaxMbps {
			t.Fatalf("rate %v escaped [%v, %v]", r, cfg.RminMbps, cfg.RmaxMbps)
		}
	}
}

func TestIgnoresAcksWithoutEcho(t *testing.T) {
	_, cc, _ := fixture()
	cc.OnAck(0, &netsim.Packet{Kind: netsim.KindAck})
	if cc.haveRTT {
		t.Error("consumed an ack without an RTT echo")
	}
}

func TestNoSwitchInvolvement(t *testing.T) {
	_, cc, _ := fixture()
	cc.OnCNP(0, &netsim.Packet{Kind: netsim.KindCNP})
	if cc.CurrentRate().Mbps() != DefaultConfig(40).RmaxMbps {
		t.Error("TIMELY reacted to a CNP")
	}
}
