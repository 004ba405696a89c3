// Package hpcc reimplements HPCC (Li et al., SIGCOMM 2019), the
// INT-driven window-based baseline:
//
//   - Switch: every departing data packet is stamped with per-hop
//     telemetry (cumulative tx bytes, queue length, timestamp, link
//     bandwidth).
//   - Receiver: echoes the INT stack on per-packet ACKs.
//   - Sender: MeasureInflight/ComputeWind per the paper — estimate the
//     most-utilized hop's normalized inflight U, multiplicatively track
//     W = Wc·η/U + W_AI with at most maxStage additive-only stages, and
//     pace at W/T.
//
// HPCC deliberately keeps U below η < 1, trading bandwidth headroom for
// near-empty queues; the RoCC paper's comparisons exercise exactly this
// trade-off.
package hpcc

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Config holds HPCC parameters (paper defaults).
type Config struct {
	Eta      float64  // target utilization η (0.95)
	MaxStage int      // additive-increase stages per MI round (5)
	BaseRTT  sim.Time // network base RTT T used for BDP and pacing
	WAIBytes float64  // additive increase per update, bytes
	RmaxMbps float64  // line rate; 0 = host NIC rate
}

// DefaultConfig returns the paper's parameters for a sender whose
// bottleneck bandwidth is gbps and whose base RTT is baseRTT.
func DefaultConfig(gbps float64, baseRTT sim.Time) Config {
	bdp := gbps * 1e9 / 8 * baseRTT.Seconds()
	wai := bdp * (1 - 0.95) / 64 // small additive share, per-paper guidance
	if wai < float64(netsim.HeaderBytes) {
		wai = float64(netsim.HeaderBytes)
	}
	return Config{
		Eta:      0.95,
		MaxStage: 5,
		BaseRTT:  baseRTT,
		WAIBytes: wai,
		RmaxMbps: gbps * 1000,
	}
}

// Stamper is the HPCC switch role: INT insertion at the egress pipeline.
// Attach to egress ports via Port.CC.
type Stamper struct {
	port *netsim.Port
}

// NewStamper builds the INT stamper for one egress port.
func NewStamper(port *netsim.Port) *Stamper { return &Stamper{port: port} }

// OnEnqueue implements netsim.PortCC.
func (s *Stamper) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {}

// OnDequeue implements netsim.PortCC: stamp telemetry as the packet leaves.
func (s *Stamper) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	pkt.StampINT(netsim.INTRecord{
		TxBytes: s.port.TxDataBytes + uint64(pkt.Size),
		QLen:    qlen,
		TS:      now,
		Rate:    s.port.LinkRate,
	})
}

// FlowCC is the HPCC sender for one flow.
type FlowCC struct {
	cfg Config

	wc       float64 // reference window, bytes
	w        float64 // current window, bytes
	u        float64 // smoothed normalized inflight
	incStage int

	lastINT       []netsim.INTRecord
	haveBaseline  bool
	lastUpdateSeq int64
	sentHigh      int64
	acked         int64

	pacer netsim.Pacer
}

// NewFlowCC builds an HPCC window controller starting at one BDP.
func NewFlowCC(host *netsim.Host, cfg Config) *FlowCC {
	if cfg.RmaxMbps == 0 {
		cfg.RmaxMbps = host.NIC().LinkRate.Mbps()
	}
	bdp := cfg.RmaxMbps * 1e6 / 8 * cfg.BaseRTT.Seconds()
	return &FlowCC{cfg: cfg, wc: bdp, w: bdp}
}

// Allow implements netsim.FlowCC: window limit plus W/T pacing.
func (cc *FlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	inflight := cc.sentHigh - cc.acked
	if float64(inflight)+float64(payload) > cc.w {
		return 0, false // window-blocked; re-polled on ACK
	}
	return cc.pacer.Next(now), true
}

// OnSent implements netsim.FlowCC.
func (cc *FlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	if end := pkt.Seq + int64(pkt.Payload); end > cc.sentHigh {
		cc.sentHigh = end
	}
	cc.pacer.Consume(now, cc.pacingRate(), pkt.Size)
}

func (cc *FlowCC) pacingRate() netsim.Rate {
	r := netsim.Rate(cc.w * 8 / cc.cfg.BaseRTT.Seconds())
	if max := netsim.Mbps(cc.cfg.RmaxMbps); r > max {
		r = max
	}
	if r < netsim.Mbps(1) {
		r = netsim.Mbps(1)
	}
	return r
}

// OnAck implements netsim.FlowCC: the NewAck procedure from the paper.
func (cc *FlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {
	if pkt.AckSeq > cc.acked {
		cc.acked = pkt.AckSeq
	}
	intRecs := pkt.EchoINT()
	if len(intRecs) == 0 {
		return
	}
	if !cc.haveBaseline || len(intRecs) != len(cc.lastINT) {
		cc.lastINT = append(cc.lastINT[:0], intRecs...)
		cc.haveBaseline = true
		return
	}
	u := cc.measureInflight(intRecs)
	updateWc := pkt.AckSeq > cc.lastUpdateSeq
	cc.computeWind(u, updateWc)
	if updateWc {
		cc.lastUpdateSeq = cc.sentHigh
	}
	cc.lastINT = append(cc.lastINT[:0], intRecs...)
}

// measureInflight implements MeasureInflight: the max per-hop normalized
// inflight estimate, EWMA-smoothed over the sampling interval τ.
func (cc *FlowCC) measureInflight(cur []netsim.INTRecord) float64 {
	tBase := cc.cfg.BaseRTT.Seconds()
	var uMax float64
	var tau float64 = tBase
	for i := range cur {
		prev := cc.lastINT[i]
		dt := (cur[i].TS - prev.TS).Seconds()
		if dt <= 0 {
			continue
		}
		txRate := float64(cur[i].TxBytes-prev.TxBytes) * 8 / dt
		b := float64(cur[i].Rate)
		qlen := cur[i].QLen
		if prev.QLen < qlen {
			qlen = prev.QLen
		}
		u := float64(qlen)*8/(b*tBase) + txRate/b
		if u > uMax {
			uMax = u
			tau = dt
		}
	}
	if tau > tBase {
		tau = tBase
	}
	cc.u = float64((1-tau/tBase)*cc.u) + float64((tau/tBase)*uMax)
	return cc.u
}

// computeWind implements ComputeWind.
func (cc *FlowCC) computeWind(u float64, updateWc bool) {
	if u >= cc.cfg.Eta || cc.incStage >= cc.cfg.MaxStage {
		cc.w = cc.wc/(u/cc.cfg.Eta) + cc.cfg.WAIBytes
		if updateWc {
			cc.incStage = 0
			cc.wc = cc.w
		}
	} else {
		cc.w = cc.wc + cc.cfg.WAIBytes
		if updateWc {
			cc.incStage++
			cc.wc = cc.w
		}
	}
	maxW := float64(cc.cfg.RmaxMbps*1e6/8*cc.cfg.BaseRTT.Seconds()) * 2
	if cc.w > maxW {
		cc.w = maxW
	}
	if cc.w < netsim.MTUPayload {
		cc.w = netsim.MTUPayload
	}
}

// OnReroute implements netsim.RouteAware: after a route reconvergence
// the flow's ACKs may echo INT records from a different hop sequence, so
// the stored baseline no longer pairs hop-for-hop with fresh telemetry.
// Dropping it makes the next ACK re-baseline (the same path OnAck takes
// when the INT stack changes length); the windows wc/w survive, so the
// flow keeps pacing at its last estimate until real measurements arrive.
func (cc *FlowCC) OnReroute(now sim.Time) {
	cc.haveBaseline = false
	cc.lastINT = cc.lastINT[:0]
}

// OnRewind implements netsim.RetxAware: a go-back-N rewind declared every
// byte at or above seq lost, so they leave the in-flight account. Without
// this a blackhole window (failed link or switch) pins inflight at W and
// Allow blocks the retransmissions that would free it.
func (cc *FlowCC) OnRewind(now sim.Time, seq int64) {
	if seq >= cc.sentHigh {
		return
	}
	cc.sentHigh = seq
	if cc.sentHigh < cc.acked {
		cc.sentHigh = cc.acked
	}
	if cc.lastUpdateSeq > cc.sentHigh {
		cc.lastUpdateSeq = cc.sentHigh
	}
}

// OnCNP implements netsim.FlowCC. HPCC has no CNPs.
func (cc *FlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {}

// CurrentRate implements netsim.FlowCC.
func (cc *FlowCC) CurrentRate() netsim.Rate { return cc.pacingRate() }
