// Package timely reimplements TIMELY (Mittal et al., SIGCOMM 2015), the
// RTT-gradient baseline. The switch takes no action; the sender measures
// RTT from ACK echoes and adjusts its rate:
//
//   - below Tlow: additive increase;
//   - above Thigh: multiplicative decrease proportional to the overshoot;
//   - in between: gradient tracking — increase (HAI after N consecutive
//     negative gradients) when RTTs fall, multiplicative decrease scaled
//     by the normalized gradient when they rise.
//
// As [45] showed and the RoCC paper reproduces, the gradient regime has no
// fixed point, so per-flow rates oscillate and long-term fairness suffers.
package timely

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Config holds TIMELY parameters, scaled for the simulated fabrics.
type Config struct {
	EwmaAlpha float64  // RTT-difference EWMA weight (0.3)
	Beta      float64  // multiplicative-decrease factor (0.8)
	DeltaMbps float64  // additive-increase step
	Tlow      sim.Time // no-decrease RTT floor
	Thigh     sim.Time // always-decrease RTT ceiling
	MinRTT    sim.Time // normalization for the gradient
	HAICount  int      // consecutive negative gradients before HAI (5)
	RminMbps  float64  // rate floor
	RmaxMbps  float64  // line rate; 0 = host NIC rate
	AckEvery  int      // RTT sampling cadence in packets (segment size)
}

// DefaultConfig returns parameters adapted to a gbps fabric with ~10 µs
// base RTTs (the paper's TIMELY used 10 GbE with 50-500 µs thresholds; we
// scale thresholds to the simulated fabric's RTT range).
func DefaultConfig(gbps float64) Config {
	return Config{
		EwmaAlpha: 0.3,
		Beta:      0.8,
		DeltaMbps: 10 * gbps / 10, // 10 Mb/s per 10G of line rate
		Tlow:      20 * sim.Microsecond,
		Thigh:     150 * sim.Microsecond,
		MinRTT:    10 * sim.Microsecond,
		HAICount:  5,
		RminMbps:  10,
		RmaxMbps:  gbps * 1000,
		AckEvery:  16,
	}
}

// FlowCC is the TIMELY rate controller for one flow.
type FlowCC struct {
	host *netsim.Host
	cfg  Config

	rate     float64 // Mb/s
	prevRTT  sim.Time
	rttDiff  float64 // seconds, EWMA
	negCount int
	haveRTT  bool

	pacer netsim.Pacer

	// Counters.
	Decreases int
	Increases int
}

// NewFlowCC builds a TIMELY controller starting at line rate.
func NewFlowCC(host *netsim.Host, cfg Config) *FlowCC {
	if cfg.RmaxMbps == 0 {
		cfg.RmaxMbps = host.NIC().LinkRate.Mbps()
	}
	return &FlowCC{host: host, cfg: cfg, rate: cfg.RmaxMbps}
}

// Allow implements netsim.FlowCC.
func (cc *FlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	return cc.pacer.Next(now), true
}

// OnSent implements netsim.FlowCC.
func (cc *FlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	cc.pacer.Consume(now, netsim.Mbps(cc.rate), pkt.Size)
}

// OnAck implements netsim.FlowCC: one RTT sample per completion event.
func (cc *FlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {
	if pkt.EchoTS == 0 {
		return
	}
	rtt := now - pkt.EchoTS
	if !cc.haveRTT {
		cc.prevRTT = rtt
		cc.haveRTT = true
		return
	}
	newDiff := (rtt - cc.prevRTT).Seconds()
	cc.rttDiff = float64((1-cc.cfg.EwmaAlpha)*cc.rttDiff) + float64(cc.cfg.EwmaAlpha*newDiff)
	cc.prevRTT = rtt
	normGrad := cc.rttDiff / cc.cfg.MinRTT.Seconds()

	switch {
	case rtt < cc.cfg.Tlow:
		cc.rate += cc.cfg.DeltaMbps
		cc.negCount = 0
		cc.Increases++
	case rtt > cc.cfg.Thigh:
		cc.rate *= 1 - float64(cc.cfg.Beta*(1-cc.cfg.Thigh.Seconds()/rtt.Seconds()))
		cc.negCount = 0
		cc.Decreases++
	case normGrad <= 0:
		cc.negCount++
		step := cc.cfg.DeltaMbps
		if cc.negCount >= cc.cfg.HAICount {
			step *= float64(cc.cfg.HAICount) // hyper-active increase
		}
		cc.rate += step
		cc.Increases++
	default:
		grad := normGrad
		if grad > 1 {
			grad = 1
		}
		cc.rate *= 1 - float64(cc.cfg.Beta*grad)
		cc.negCount = 0
		cc.Decreases++
	}
	if cc.rate > cc.cfg.RmaxMbps {
		cc.rate = cc.cfg.RmaxMbps
	}
	if cc.rate < cc.cfg.RminMbps {
		cc.rate = cc.cfg.RminMbps
	}
	cc.host.Kick()
}

// OnReroute implements netsim.RouteAware: after a route reconvergence
// the flow's RTT baseline describes the old path — the first sample on
// the new path would register as a huge (possibly negative) gradient and
// trigger a spurious HAI ramp or multiplicative decrease. Resetting the
// gradient state makes the next ACK a fresh baseline sample; the rate
// itself survives, so the flow keeps pacing while it re-learns.
func (cc *FlowCC) OnReroute(now sim.Time) {
	cc.haveRTT = false
	cc.rttDiff = 0
	cc.negCount = 0
}

// OnCNP implements netsim.FlowCC. TIMELY has no CNPs.
func (cc *FlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {}

// CurrentRate implements netsim.FlowCC.
func (cc *FlowCC) CurrentRate() netsim.Rate { return netsim.Mbps(cc.rate) }
