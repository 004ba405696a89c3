// Package dctcp reimplements DCTCP (Alizadeh et al., SIGCOMM 2010), the
// first row of the paper's Table 1. DCTCP is not part of the RoCC
// paper's quantitative evaluation (it is a TCP-stack design, not an RDMA
// one), but it completes the Table 1 lineage: the switch marks ECN above
// a fixed threshold, the receiver echoes the marks, and the sender
// scales its multiplicative decrease by the EWMA fraction α of marked
// packets:
//
//	cwnd ← cwnd · (1 − α/2)
//
// Here it runs as a window-based netsim.FlowCC with per-packet ACKs
// (AckEvery = 1), using the ACK's CE echo.
package dctcp

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Config holds DCTCP parameters.
type Config struct {
	MarkBytes int      // switch marking threshold K (fixed, not RED)
	G         float64  // α EWMA gain (1/16 in the paper)
	BaseRTT   sim.Time // for the initial window and pacing
	RmaxMbps  float64  // line rate; 0 = host NIC rate
	MinCwnd   float64  // floor in bytes (2 packets)
}

// DefaultConfig returns DCTCP parameters for a gbps fabric: K scaled to
// ~20 packets per 10G as the paper recommends (65 packets at 10G ≈ 65KB;
// we use the common K = 20% of BDP guidance adapted to the fabric).
func DefaultConfig(gbps float64, baseRTT sim.Time) Config {
	k := int(gbps / 10 * 65 * 1000) // 65 KB per 10G of line rate
	return Config{
		MarkBytes: k,
		G:         1.0 / 16,
		BaseRTT:   baseRTT,
		RmaxMbps:  gbps * 1000,
		MinCwnd:   2 * (netsim.MTUPayload + netsim.HeaderBytes),
	}
}

// Marker is the DCTCP congestion point: a fixed-threshold ECN marker.
type Marker struct {
	cfg    Config
	Marked uint64
}

// NewMarker builds the threshold marker for egress ports.
func NewMarker(cfg Config) *Marker { return &Marker{cfg: cfg} }

// OnEnqueue implements netsim.PortCC: mark every ECT packet above K.
func (m *Marker) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if pkt.ECT && qlen > m.cfg.MarkBytes {
		pkt.CE = true
		m.Marked++
	}
}

// OnDequeue implements netsim.PortCC.
func (m *Marker) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {}

// Receiver echoes CE marks back to the sender. The real protocol
// piggybacks an ECE flag on ACKs; netsim's generic ACKs do not carry the
// CE bit, so the receiver sends an explicit tiny echo packet per marked
// data packet — same information, same direction, same priority class.
type Receiver struct {
	host *netsim.Host
}

// NewReceiver builds the receiver-side echo hook.
func NewReceiver(host *netsim.Host) *Receiver { return &Receiver{host: host} }

// OnData implements netsim.ReceiverHook: echo CE marks to the sender.
func (r *Receiver) OnData(now sim.Time, pkt *netsim.Packet) *netsim.Packet {
	if !pkt.CE {
		return nil
	}
	echo := r.host.Network().AcquirePacket(r.host)
	echo.Flow = pkt.Flow
	echo.Src = r.host.ID()
	echo.Dst = pkt.Src
	echo.Kind = netsim.KindCNP // carried in the control class, like an ECE-marked ACK
	echo.Cls = netsim.ClassAck
	echo.Size = netsim.AckBytes
	echo.SendTS = now
	return echo
}

// FlowCC is the DCTCP sender for one flow: window-based with the α-scaled
// multiplicative decrease once per RTT.
type FlowCC struct {
	cfg  Config
	host *netsim.Host

	cwnd     float64 // bytes
	alpha    float64
	acked    int64
	sentHigh int64

	// Per-RTT accounting.
	windowEnd   int64 // decrease at most once per window of data
	ackedInWin  int
	markedInWin int
	decreaseArm bool
	pacer       netsim.Pacer

	// Counters.
	Decreases int
}

// NewFlowCC builds a DCTCP window controller starting at one BDP.
func NewFlowCC(host *netsim.Host, cfg Config) *FlowCC {
	if cfg.RmaxMbps == 0 {
		cfg.RmaxMbps = host.NIC().LinkRate.Mbps()
	}
	bdp := cfg.RmaxMbps * 1e6 / 8 * cfg.BaseRTT.Seconds()
	if bdp < cfg.MinCwnd {
		bdp = cfg.MinCwnd
	}
	return &FlowCC{cfg: cfg, host: host, cwnd: bdp}
}

// Allow implements netsim.FlowCC.
func (cc *FlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	if float64(cc.sentHigh-cc.acked)+float64(payload) > cc.cwnd {
		return 0, false
	}
	return cc.pacer.Next(now), true
}

// OnSent implements netsim.FlowCC.
func (cc *FlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	if end := pkt.Seq + int64(pkt.Payload); end > cc.sentHigh {
		cc.sentHigh = end
	}
	rate := netsim.Rate(cc.cwnd * 8 / cc.cfg.BaseRTT.Seconds())
	if max := netsim.Mbps(cc.cfg.RmaxMbps); rate > max {
		rate = max
	}
	cc.pacer.Consume(now, rate, pkt.Size)
}

// OnAck implements netsim.FlowCC: per-ACK additive increase and the
// once-per-window α update.
func (cc *FlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {
	if pkt.AckSeq > cc.acked {
		cc.acked = pkt.AckSeq
	}
	cc.ackedInWin++
	// Slow additive increase: one MSS per window.
	cc.cwnd += float64(netsim.MTUPayload) * float64(netsim.MTUPayload) / cc.cwnd
	if cc.acked >= cc.windowEnd {
		frac := 0.0
		if cc.ackedInWin > 0 {
			frac = float64(cc.markedInWin) / float64(cc.ackedInWin)
		}
		cc.alpha = float64((1-cc.cfg.G)*cc.alpha) + float64(cc.cfg.G*frac)
		if cc.decreaseArm {
			cc.cwnd *= 1 - float64(cc.alpha/2)
			cc.Decreases++
			cc.decreaseArm = false
		}
		if cc.cwnd < cc.cfg.MinCwnd {
			cc.cwnd = cc.cfg.MinCwnd
		}
		cc.markedInWin = 0
		cc.ackedInWin = 0
		cc.windowEnd = cc.sentHigh
	}
	cc.host.Kick()
}

// OnRewind implements netsim.RetxAware: a go-back-N rewind declared every
// byte at or above seq lost, so they leave the in-flight account. Without
// this a blackhole window (failed link or switch) pins sentHigh-acked at
// cwnd and Allow blocks the retransmissions that would free it.
func (cc *FlowCC) OnRewind(now sim.Time, seq int64) {
	if seq >= cc.sentHigh {
		return
	}
	cc.sentHigh = seq
	if cc.sentHigh < cc.acked {
		cc.sentHigh = cc.acked
	}
	if cc.windowEnd > cc.sentHigh {
		cc.windowEnd = cc.sentHigh
	}
}

// OnCNP implements netsim.FlowCC: the receiver's CE echoes arrive here.
func (cc *FlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {
	cc.markedInWin++
	cc.decreaseArm = true
}

// CurrentRate implements netsim.FlowCC.
func (cc *FlowCC) CurrentRate() netsim.Rate {
	return netsim.Rate(cc.cwnd * 8 / cc.cfg.BaseRTT.Seconds())
}
