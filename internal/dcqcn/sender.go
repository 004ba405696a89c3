package dcqcn

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// FlowCC is the DCQCN reaction point for one flow.
type FlowCC struct {
	engine *sim.Engine
	host   *netsim.Host
	cfg    Config

	rc    float64 // current rate, Mb/s
	rt    float64 // target rate, Mb/s
	alpha float64

	bytesSinceInc int64
	stageByte     int
	stageTime     int

	alphaTimer sim.Handle
	rateTimer  sim.Handle
	pacer      netsim.Pacer

	// Counters.
	Cuts      int
	Increases int
}

// NewFlowCC builds a DCQCN rate controller starting at line rate. Its
// timers run on the host's engine.
func NewFlowCC(host *netsim.Host, cfg Config) *FlowCC {
	if cfg.RmaxMbps == 0 {
		cfg.RmaxMbps = host.NIC().LinkRate.Mbps()
	}
	cc := &FlowCC{
		engine: host.Engine(),
		host:   host,
		cfg:    cfg,
		rc:     cfg.RmaxMbps,
		rt:     cfg.RmaxMbps,
		alpha:  1,
	}
	cc.armAlphaTimer()
	cc.armRateTimer()
	return cc
}

// Allow implements netsim.FlowCC: pure rate pacing.
func (cc *FlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	return cc.pacer.Next(now), true
}

// OnSent implements netsim.FlowCC.
func (cc *FlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	cc.pacer.Consume(now, netsim.Mbps(cc.rc), pkt.Size)
	cc.bytesSinceInc += int64(pkt.Size)
	if cc.bytesSinceInc >= cc.cfg.ByteCounter {
		cc.bytesSinceInc = 0
		cc.stageByte++
		cc.increase()
	}
}

// OnAck implements netsim.FlowCC. DCQCN ignores ACKs.
func (cc *FlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {}

// OnCNP implements netsim.FlowCC: the DCQCN rate decrease.
func (cc *FlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {
	cc.rt = cc.rc
	cc.alpha = float64((1-cc.cfg.G)*cc.alpha) + cc.cfg.G
	cc.rc = cc.rc * (1 - float64(cc.alpha/2))
	if cc.rc < cc.cfg.RminMbps {
		cc.rc = cc.cfg.RminMbps
	}
	cc.stageByte = 0
	cc.stageTime = 0
	cc.bytesSinceInc = 0
	cc.Cuts++
	cc.armAlphaTimer()
	cc.armRateTimer()
}

// CurrentRate implements netsim.FlowCC.
func (cc *FlowCC) CurrentRate() netsim.Rate { return netsim.Mbps(cc.rc) }

// Stop cancels internal timers (for teardown in long experiments).
func (cc *FlowCC) Stop() {
	cc.alphaTimer.Cancel()
	cc.rateTimer.Cancel()
}

// The repeating timers reschedule through package-level callbacks so a
// long-running sender's timer wheel reuses pooled event slots instead of
// allocating a closure per tick.

func (cc *FlowCC) armAlphaTimer() {
	cc.alphaTimer.Cancel()
	cc.alphaTimer = cc.engine.AfterCall(cc.cfg.AlphaTimer, alphaTick, cc, nil)
}

func alphaTick(a, _ any) {
	cc := a.(*FlowCC)
	cc.alpha = (1 - cc.cfg.G) * cc.alpha
	cc.armAlphaTimer()
}

func (cc *FlowCC) armRateTimer() {
	cc.rateTimer.Cancel()
	cc.rateTimer = cc.engine.AfterCall(cc.cfg.RateTimer, rateTick, cc, nil)
}

func rateTick(a, _ any) {
	cc := a.(*FlowCC)
	cc.stageTime++
	cc.increase()
	cc.armRateTimer()
}

// increase runs one rate-increase event: fast recovery, then additive,
// then hyper increase once both counters pass FastSteps.
func (cc *FlowCC) increase() {
	switch {
	case cc.stageByte > cc.cfg.FastSteps && cc.stageTime > cc.cfg.FastSteps:
		cc.rt += cc.cfg.RHAIMbps
	case cc.stageByte > cc.cfg.FastSteps || cc.stageTime > cc.cfg.FastSteps:
		cc.rt += cc.cfg.RAIMbps
	}
	if cc.rt > cc.cfg.RmaxMbps {
		cc.rt = cc.cfg.RmaxMbps
	}
	cc.rc = (cc.rt + cc.rc) / 2
	if cc.rc > cc.cfg.RmaxMbps {
		cc.rc = cc.cfg.RmaxMbps
	}
	cc.Increases++
	cc.host.Kick()
}
