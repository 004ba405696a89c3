// Package qcn reimplements QCN (IEEE 802.1Qau; Alizadeh et al., Allerton
// 2008), the layer-2 switch-driven baseline RoCC descends from:
//
//   - Congestion point: sample roughly every SampleBytes of arrivals;
//     compute Fb = -(Qoff + W·Qδ) and, when negative, send its quantized
//     magnitude to the source of the sampled packet.
//   - Reaction point: multiplicative decrease proportional to Fb, then
//     byte-counter/timer driven fast recovery and active increase toward
//     the remembered target rate.
package qcn

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Config holds QCN parameters (802.1Qau defaults, rate steps scaled by
// line rate).
type Config struct {
	// Congestion point.
	QeqBytes    int     // equilibrium queue length
	W           float64 // queue-derivative weight (2)
	SampleBytes int     // mean sampled-packet spacing (150 KB)
	FbBits      int     // feedback quantization bits (6)

	// Reaction point.
	Gd        float64  // rate-decrease gain: cut = Gd·|Fb| (max 1/2)
	ByteLimit int64    // fast-recovery byte counter (150 KB)
	Timer     sim.Time // fast-recovery timer (15 ms in spec; scaled down)
	FastSteps int      // cycles before active increase (5)
	RAIMbps   float64  // active-increase step
	RminMbps  float64  // rate floor
	RmaxMbps  float64  // line rate; 0 = host NIC rate
}

// DefaultConfig returns QCN parameters for a gbps fabric.
func DefaultConfig(gbps float64) Config {
	scale := gbps / 10
	if scale < 1 {
		scale = 1
	}
	maxFb := float64(int(1)<<6 - 1)
	return Config{
		QeqBytes:    150 * netsim.KB,
		W:           2,
		SampleBytes: 150 * netsim.KB,
		FbBits:      6,
		Gd:          0.5 / maxFb,
		ByteLimit:   150 * 1000,
		Timer:       500 * sim.Microsecond,
		FastSteps:   5,
		RAIMbps:     5 * scale,
		RminMbps:    10,
		RmaxMbps:    gbps * 1000,
	}
}

// CP is the QCN congestion point for one egress port.
type CP struct {
	net  *netsim.Network
	sw   *netsim.Switch
	cfg  Config
	acc  int
	qold int

	FbSent uint64
}

// AttachCP installs a QCN congestion point on an egress port.
func AttachCP(net *netsim.Network, sw *netsim.Switch, port *netsim.Port, cfg Config) *CP {
	cp := &CP{net: net, sw: sw, cfg: cfg}
	port.CC = cp
	return cp
}

// OnEnqueue implements netsim.PortCC: byte-driven sampling and feedback.
func (cp *CP) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.acc += pkt.Size
	if cp.acc < cp.cfg.SampleBytes {
		return
	}
	cp.acc -= cp.cfg.SampleBytes
	qoff := qlen - cp.cfg.QeqBytes
	qdelta := qlen - cp.qold
	cp.qold = qlen
	fb := -(float64(qoff) + float64(cp.cfg.W*float64(qdelta)))
	if fb >= 0 {
		return // no congestion; QCN sends nothing
	}
	// Quantize |Fb| to FbBits against the maximum representable
	// congestion (Qeq·(1+2W), per the standard's scaling).
	maxFb := float64(cp.cfg.QeqBytes) * (1 + 2*cp.cfg.W)
	mag := -fb
	if mag > maxFb {
		mag = maxFb
	}
	levels := float64(int(1)<<cp.cfg.FbBits - 1)
	quantized := int(mag / maxFb * levels)
	if quantized == 0 {
		quantized = 1
	}
	f := cp.net.Flow(pkt.Flow)
	if f == nil {
		return
	}
	cp.FbSent++
	cnp := cp.net.AcquirePacket(cp.sw)
	cnp.Flow = pkt.Flow
	cnp.Src = cp.sw.ID()
	cnp.Dst = f.Src().ID()
	cnp.Kind = netsim.KindCNP
	cnp.Cls = netsim.ClassCtrl
	cnp.Size = netsim.CNPBytes
	cnp.EnsureCNP().RateUnits = quantized // carries |Fb|
	cnp.SendTS = now
	cp.sw.Inject(cnp)
}

// OnDequeue implements netsim.PortCC.
func (cp *CP) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {}

// FlowCC is the QCN reaction point for one flow.
type FlowCC struct {
	engine *sim.Engine
	host   *netsim.Host
	cfg    Config

	rc float64
	rt float64

	bytesSinceInc int64
	stageByte     int
	stageTime     int
	timer         sim.Handle
	pacer         netsim.Pacer

	Cuts int
}

// NewFlowCC builds a QCN rate controller starting at line rate. Its
// timer runs on the host's engine.
func NewFlowCC(host *netsim.Host, cfg Config) *FlowCC {
	if cfg.RmaxMbps == 0 {
		cfg.RmaxMbps = host.NIC().LinkRate.Mbps()
	}
	cc := &FlowCC{engine: host.Engine(), host: host, cfg: cfg, rc: cfg.RmaxMbps, rt: cfg.RmaxMbps}
	cc.armTimer()
	return cc
}

// Allow implements netsim.FlowCC.
func (cc *FlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	return cc.pacer.Next(now), true
}

// OnSent implements netsim.FlowCC.
func (cc *FlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	cc.pacer.Consume(now, netsim.Mbps(cc.rc), pkt.Size)
	cc.bytesSinceInc += int64(pkt.Size)
	if cc.bytesSinceInc >= cc.cfg.ByteLimit {
		cc.bytesSinceInc = 0
		cc.stageByte++
		cc.increase()
	}
}

// OnAck implements netsim.FlowCC.
func (cc *FlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {}

// OnCNP implements netsim.FlowCC: Fb-proportional rate decrease.
func (cc *FlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {
	info := pkt.CNP()
	if info == nil {
		return
	}
	fb := float64(info.RateUnits)
	cc.rt = cc.rc
	cc.rc *= 1 - float64(cc.cfg.Gd*fb)
	if cc.rc < cc.cfg.RminMbps {
		cc.rc = cc.cfg.RminMbps
	}
	cc.stageByte = 0
	cc.stageTime = 0
	cc.bytesSinceInc = 0
	cc.Cuts++
	cc.armTimer()
}

// CurrentRate implements netsim.FlowCC.
func (cc *FlowCC) CurrentRate() netsim.Rate { return netsim.Mbps(cc.rc) }

// Stop cancels the recovery timer (flow teardown).
func (cc *FlowCC) Stop() {
	cc.timer.Cancel()
}

func (cc *FlowCC) armTimer() {
	cc.timer.Cancel()
	cc.timer = cc.engine.AfterCall(cc.cfg.Timer, recoveryTick, cc, nil)
}

// recoveryTick runs one fast-recovery cycle; a package-level callback so
// the repeating timer reuses pooled event slots instead of allocating a
// closure per tick.
func recoveryTick(a, _ any) {
	cc := a.(*FlowCC)
	cc.stageTime++
	cc.increase()
	cc.armTimer()
}

func (cc *FlowCC) increase() {
	if cc.stageByte > cc.cfg.FastSteps || cc.stageTime > cc.cfg.FastSteps {
		cc.rt += cc.cfg.RAIMbps
	}
	if cc.rt > cc.cfg.RmaxMbps {
		cc.rt = cc.cfg.RmaxMbps
	}
	cc.rc = (cc.rt + cc.rc) / 2
	if cc.rc > cc.cfg.RmaxMbps {
		cc.rc = cc.cfg.RmaxMbps
	}
	cc.host.Kick()
}
