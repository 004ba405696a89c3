// Package dcqcn reimplements DCQCN (Zhu et al., SIGCOMM 2015), the
// production RoCEv2 congestion control the paper compares against:
//
//   - Switch: RED-style probabilistic ECN marking between Kmin and Kmax.
//   - Receiver: at most one CNP per flow per CNPInterval when marked
//     packets arrive.
//   - Sender: multiplicative decrease with the g/α EWMA, then fast
//     recovery, additive increase, and hyper increase driven by a byte
//     counter and a timer.
package dcqcn

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Config holds DCQCN parameters. Defaults follow the SIGCOMM'15 paper and
// common 40 GbE deployments; Scale adapts rate steps for faster links.
type Config struct {
	// Marking (congestion point).
	KminBytes int     // no marking below this queue length
	KmaxBytes int     // always mark above this queue length
	Pmax      float64 // marking probability at Kmax

	// Receiver (notification point).
	CNPInterval sim.Time // minimum CNP spacing per flow (50 µs)

	// Sender (reaction point).
	G           float64  // α EWMA gain (1/256)
	AlphaTimer  sim.Time // α decay interval without CNPs (55 µs)
	RateTimer   sim.Time // rate-increase timer period (55 µs)
	ByteCounter int64    // rate-increase byte counter (10 MB)
	FastSteps   int      // fast-recovery iterations before additive (5)
	RAIMbps     float64  // additive increase step (40 Mb/s)
	RHAIMbps    float64  // hyper increase step (400 Mb/s)
	RminMbps    float64  // rate floor (10 Mb/s)
	RmaxMbps    float64  // line rate; 0 = host NIC rate
}

// DefaultConfig returns the standard parameter set for a link of the given
// bandwidth in Gb/s.
func DefaultConfig(gbps float64) Config {
	scale := gbps / 40
	if scale < 1 {
		scale = 1
	}
	return Config{
		// Marking thresholds scale with line rate so the marking band
		// covers a comparable queuing delay at every port speed.
		KminBytes:   int(40 * netsim.KB * scale),
		KmaxBytes:   int(200 * netsim.KB * scale),
		Pmax:        0.01,
		CNPInterval: 50 * sim.Microsecond,
		G:           1.0 / 256,
		AlphaTimer:  55 * sim.Microsecond,
		RateTimer:   55 * sim.Microsecond,
		ByteCounter: 10 * 1000 * 1000,
		FastSteps:   5,
		RAIMbps:     40 * scale,
		RHAIMbps:    400 * scale,
		RminMbps:    10,
		RmaxMbps:    gbps * 1000,
	}
}

// Marker is the DCQCN congestion point: probabilistic ECN marking on
// enqueue. Attach to egress ports via Port.CC.
type Marker struct {
	cfg  Config
	rand *sim.Rand

	Marked uint64
	Seen   uint64
}

// NewMarker builds an ECN marker; rand drives the marking probability.
func NewMarker(cfg Config, rand *sim.Rand) *Marker {
	return &Marker{cfg: cfg, rand: rand}
}

// OnEnqueue implements netsim.PortCC.
func (m *Marker) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if !pkt.ECT {
		return
	}
	m.Seen++
	switch {
	case qlen <= m.cfg.KminBytes:
		return
	case qlen >= m.cfg.KmaxBytes:
		pkt.CE = true
	default:
		p := m.cfg.Pmax * float64(qlen-m.cfg.KminBytes) / float64(m.cfg.KmaxBytes-m.cfg.KminBytes)
		if m.rand.Float64() < p {
			pkt.CE = true
		}
	}
	if pkt.CE {
		m.Marked++
	}
}

// OnDequeue implements netsim.PortCC.
func (m *Marker) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {}

// Receiver is the DCQCN notification point: it converts marked data
// packets into CNPs, at most one per flow per CNPInterval.
type Receiver struct {
	cfg     Config
	host    *netsim.Host
	lastCNP map[netsim.FlowID]sim.Time

	CNPsSent uint64
}

// NewReceiver builds the notification-point hook for a destination host.
func NewReceiver(cfg Config, host *netsim.Host) *Receiver {
	return &Receiver{cfg: cfg, host: host, lastCNP: make(map[netsim.FlowID]sim.Time)}
}

// OnData implements netsim.ReceiverHook.
func (r *Receiver) OnData(now sim.Time, pkt *netsim.Packet) *netsim.Packet {
	if !pkt.CE {
		return nil
	}
	if last, ok := r.lastCNP[pkt.Flow]; ok && now-last < r.cfg.CNPInterval {
		return nil
	}
	r.lastCNP[pkt.Flow] = now
	r.CNPsSent++
	cnp := r.host.Network().AcquirePacket(r.host)
	cnp.Flow = pkt.Flow
	cnp.Src = r.host.ID()
	cnp.Dst = pkt.Src
	cnp.Kind = netsim.KindCNP
	cnp.Cls = netsim.ClassCtrl
	cnp.Size = netsim.CNPBytes
	cnp.SendTS = now
	return cnp
}
