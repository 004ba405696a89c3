package adversary

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// PolicerConfig parameterizes one switch's compliance policer.
type PolicerConfig struct {
	// Margin is the compliance slack: a flow is over-share in a window
	// when its measured arrival rate exceeds Margin × share. Default
	// 1.5 — transient bursts above fair share are normal (recovery
	// doubling, window growth), sustained 1.5× is not.
	Margin float64

	// TripAfter is the hysteresis on entry: consecutive over-share
	// windows before the flow is quarantined. Default 4.
	TripAfter int

	// AdvertisedRate, when set, supplies the share the fabric actually
	// promised flows on an egress — for RoCC, the congestion point's
	// fair rate, the enforcement leverage only a switch-driven scheme
	// has. When nil (or when it reports no rate), the policer falls
	// back to an equal split of the egress link over the non-quarantined
	// flows that arrived in the window — the best a switch can do for
	// end-host schemes that never told it anything.
	AdvertisedRate func(port *netsim.Port) (netsim.Rate, bool)

	// RequireAdvertised restricts compliance evaluation to egresses with
	// an advertised rate: no contract, no policing. The equal-split
	// fallback assumes every arriving flow deserves 1/n of the link,
	// which work-conserving end-host schemes legitimately violate — a
	// window-based flow absorbing slack that rate-capped neighbours left
	// idle is doing its job, not misbehaving — so against a diverse
	// workload the fallback mistakes bursts for rogues. Enforcement
	// (already-quarantined flows) continues either way; only entry and
	// release evaluation pause while an egress has no advertisement.
	RequireAdvertised bool
}

func (c PolicerConfig) fill() PolicerConfig {
	if c.Margin <= 0 {
		c.Margin = 1.5
	}
	if c.TripAfter <= 0 {
		c.TripAfter = 4
	}
	return c
}

const (
	// policerWindow is the metering interval. Per-flow arrival bytes are
	// accumulated per egress over each window and compared against the
	// advertised share at its close.
	policerWindow = 100 * sim.Microsecond

	// releaseAfter is the hysteresis on exit: consecutive compliant
	// windows (measured on *offered* arrivals, before policing drops)
	// before a quarantined flow is released. A rogue that keeps blasting
	// never looks compliant and never gets out; a reformed or
	// mis-flagged flow drops its offered rate and does.
	releaseAfter = 8

	// penaltyFraction scales the quarantine rate: a quarantined flow is
	// token-bucket limited to penaltyFraction × share.
	penaltyFraction = 0.1

	// congestedBytes (20 MTUs) gates quarantine entry on actual
	// contention: a window only counts toward a flow's overStreak when
	// the egress's data backlog peaked at or above it during the window.
	// The gate exists because advertised rates lag: on an uncongested
	// egress flows legitimately probe past the last advertised share
	// (RoCC's fast recovery doubles every 200 µs while the CP's fair
	// rate climbs additively), and punishing that probing quarantines
	// honest flows — whose packets then never reach the queue, never
	// draw fresh feedback, and never look compliant again. Over-rate
	// flows on an uncongested egress are harmless by definition; the
	// moment they actually congest it, the gate opens.
	congestedBytes = 20_000
)

// penaltyBurstBytes caps a quarantined flow's token bucket: a couple of
// MTUs of burst tolerance so the penalty rate is enforceable without
// dropping every packet of a flow that paces exactly at it.
const penaltyBurstBytes = 3072

// flowMeter accumulates one flow's arrivals at one egress per window.
type flowMeter struct {
	bytes      int64 // this window's offered arrivals (pre-drop)
	overStreak int   // consecutive over-share windows (entry hysteresis)
}

// quarantine is one policed flow's enforcement state.
type quarantine struct {
	penalty    netsim.Rate // token refill rate
	tokens     float64     // bytes available
	refillAt   sim.Time    // last refill instant
	calmStreak int         // consecutive compliant windows (exit hysteresis)
}

// PolicerStats summarizes a policer's activity.
type PolicerStats struct {
	Detections int // quarantines entered
	Releases   int // quarantines released
}

// Policer is the per-flow byte-accounting non-compliance detector for
// one switch. It installs itself as the switch's Police hook (metering
// and enforcement in one pass over every arriving data packet) plus a
// per-window evaluation ticker. Attach at most one per switch.
type Policer struct {
	net *netsim.Network
	sw  *netsim.Switch
	cfg PolicerConfig

	meters      []map[netsim.FlowID]*flowMeter // by egress port index
	qpeak       []int                          // per-egress peak data backlog this window
	quarantined map[netsim.FlowID]*quarantine

	stats PolicerStats
}

// NewPolicer attaches a compliance policer to the switch. Panics if the
// switch already carries a Police hook.
func NewPolicer(net *netsim.Network, sw *netsim.Switch, cfg PolicerConfig) *Policer {
	if sw.Police != nil {
		panic("adversary: switch " + sw.Name + " already has a Police hook")
	}
	p := &Policer{
		net:         net,
		sw:          sw,
		cfg:         cfg.fill(),
		meters:      make([]map[netsim.FlowID]*flowMeter, len(sw.Ports())),
		qpeak:       make([]int, len(sw.Ports())),
		quarantined: make(map[netsim.FlowID]*quarantine),
	}
	if reg := net.TelemetryRegistry(); reg != nil {
		reg.CounterFunc("adversary.police.detections", func() uint64 { return uint64(p.stats.Detections) })
		reg.CounterFunc("adversary.police.releases", func() uint64 { return uint64(p.stats.Releases) })
	}
	sw.Police = p.police
	net.Engine.AfterCall(policerWindow, policerTick, p, nil)
	return p
}

// Stats returns the activity counters.
func (p *Policer) Stats() PolicerStats { return p.stats }

// Quarantined reports whether a flow is currently quarantined here.
func (p *Policer) Quarantined(fid netsim.FlowID) bool {
	return p.quarantined[fid] != nil
}

// CurrentQuarantined returns how many flows are quarantined right now.
// The quarantine-accounting invariant ties it to the counters:
// CurrentQuarantined == Detections - Releases.
func (p *Policer) CurrentQuarantined() int { return len(p.quarantined) }

// ForceQuarantine puts a flow under a penalty rate immediately —
// the regression-test hook for exercising quarantine effects without
// reproducing a detection trajectory.
func (p *Policer) ForceQuarantine(fid netsim.FlowID, penalty netsim.Rate) {
	if p.quarantined[fid] != nil {
		return
	}
	p.admitQuarantine(fid, penalty)
}

func (p *Policer) admitQuarantine(fid netsim.FlowID, penalty netsim.Rate) {
	p.quarantined[fid] = &quarantine{
		penalty:  penalty,
		tokens:   penaltyBurstBytes,
		refillAt: p.net.Engine.Now(),
	}
	p.stats.Detections++
	record(p.net, "quarantine", p.sw.ID(), fid, 0, float64(penalty))
}

func (p *Policer) release(fid netsim.FlowID) {
	delete(p.quarantined, fid)
	p.stats.Releases++
	record(p.net, "release", p.sw.ID(), fid, 0, 0)
}

// police is the Switch.Police hook: meter the arrival, then enforce the
// penalty bucket if the flow is quarantined. Metering happens before
// enforcement so the compliance detector sees *offered* load — a
// quarantined rogue that keeps blasting stays visibly non-compliant
// even though its packets are being dropped.
func (p *Policer) police(now sim.Time, pkt *netsim.Packet, inPort int, egress *netsim.Port) bool {
	m := p.meters[egress.Index]
	if m == nil {
		m = make(map[netsim.FlowID]*flowMeter)
		p.meters[egress.Index] = m
	}
	fm := m[pkt.Flow]
	if fm == nil {
		fm = &flowMeter{}
		m[pkt.Flow] = fm
	}
	fm.bytes += int64(pkt.Size)
	if q := egress.DataQueueBytes(); q > p.qpeak[egress.Index] {
		p.qpeak[egress.Index] = q
	}

	q := p.quarantined[pkt.Flow]
	if q == nil {
		return true
	}
	q.tokens += float64(float64(q.penalty) / 8 * (now - q.refillAt).Seconds())
	q.refillAt = now
	if q.tokens > penaltyBurstBytes {
		q.tokens = penaltyBurstBytes
	}
	if q.tokens >= float64(pkt.Size) {
		q.tokens -= float64(pkt.Size)
		return true
	}
	return false
}

// policerTick closes one metering window: compare every metered flow's
// offered rate against the egress's advertised share, advance the
// hysteresis streaks, and reset the meters.
func policerTick(a, _ any) {
	p := a.(*Policer)
	winSeconds := policerWindow.Seconds()
	for portIdx, m := range p.meters {
		if len(m) == 0 {
			continue
		}
		port := p.sw.Port(portIdx)
		share, advertised := p.shareFor(port, m)
		if p.cfg.RequireAdvertised && !advertised {
			// No contract on this egress: close the window without judging
			// anyone. Meters reset (so a later advertised window sees only
			// its own bytes) but streaks and quarantines freeze in place.
			p.qpeak[portIdx] = 0
			for fid, fm := range m {
				fm.bytes = 0
				if p.quarantined[fid] == nil && fm.overStreak == 0 && p.net.Flow(fid) == nil {
					delete(m, fid)
				}
			}
			continue
		}
		limitBytes := float64(share) / 8 * p.cfg.Margin * winSeconds
		congested := p.qpeak[portIdx] >= congestedBytes
		p.qpeak[portIdx] = 0
		for fid, fm := range m {
			q := p.quarantined[fid]
			if float64(fm.bytes) > limitBytes {
				switch {
				case q != nil:
					q.calmStreak = 0
				case congested:
					// Over-share AND the egress actually hurt: this is
					// the window that counts toward quarantine.
					fm.overStreak++
					if fm.overStreak >= p.cfg.TripAfter {
						penalty := netsim.Rate(float64(share) * penaltyFraction)
						if penalty < netsim.Mbps(1) {
							penalty = netsim.Mbps(1)
						}
						p.admitQuarantine(fid, penalty)
					}
				default:
					// Over a stale advertised share on an idle egress is
					// legitimate probing, not an offense — and not
					// exculpatory either: the streak just holds.
				}
			} else {
				fm.overStreak = 0
				if q != nil {
					q.calmStreak++
					if q.calmStreak >= releaseAfter {
						p.release(fid)
						q = nil
					}
				}
			}
			fm.bytes = 0
			// Retire meters for flows that are gone and unpoliced; a
			// quarantined flow keeps its meter so silence (zero-byte
			// windows) counts toward its release.
			if q == nil && fm.overStreak == 0 && p.net.Flow(fid) == nil {
				delete(m, fid)
			}
		}
	}
	p.net.Engine.AfterCall(policerWindow, policerTick, p, nil)
}

// shareFor resolves the per-flow share the policer holds flows to on
// one egress: the fabric's advertised fair rate when one exists
// (advertised=true), else an equal split of the link over the
// non-quarantined flows that arrived this window.
func (p *Policer) shareFor(port *netsim.Port, m map[netsim.FlowID]*flowMeter) (netsim.Rate, bool) {
	if p.cfg.AdvertisedRate != nil {
		if r, ok := p.cfg.AdvertisedRate(port); ok && r > 0 {
			return r, true
		}
	}
	active := 0
	for fid := range m {
		if p.quarantined[fid] == nil {
			active++
		}
	}
	if active < 1 {
		active = 1
	}
	return netsim.Rate(float64(port.LinkRate) / float64(active)), false
}
