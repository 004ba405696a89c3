package roccnet

import (
	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// RPOptions configures the per-flow reaction point.
type RPOptions struct {
	// RecoveryTimer is the fast-recovery interval (Alg. 2's timer).
	// It must comfortably exceed the CP update interval T, or a flow
	// doubles its rate between two consecutive CNPs it legitimately
	// receives and the loop never settles. Defaults to 200 µs (T is
	// 40-100 µs in the paper's configurations).
	RecoveryTimer sim.Time

	// HostRegistry, when non-nil, enables the §3.6 host-computed mode:
	// the RP replicates the CP's fair-rate computation from raw queue
	// observations using this per-CP parameter registry.
	HostRegistry func(cp core.CPKey) core.CPConfig

	// StaleK is the feedback-staleness threshold forwarded to the core
	// RP: after StaleK consecutive recovery expiries without an accepted
	// CNP the RP unpins its congestion point and accepts the next valid
	// CNP unconditionally. Zero (the default) disables staleness
	// handling; fault-tolerant deployments set core.DefaultStaleK.
	StaleK int

	// VerifyCPPath arms the forged-feedback defense: CNPs claiming a
	// congestion point off the flow's current ECMP path (per
	// netsim.FlowPathCPs) are rejected as spoofed. The witness set is
	// learned lazily at the first CNP and extended after each reroute —
	// extended, not replaced, so in-flight CNPs from a just-abandoned
	// path are still honored. Off by default: the witness changes which
	// CNPs a misbehaving fabric can land, so only adversarial
	// deployments opt in.
	VerifyCPPath bool

	// MaxCNPAge, when positive, rejects CNPs whose send timestamp is
	// older than this by delivery time (which includes the host's RP
	// delay) — the replay defense. A recorded CNP replayed later to
	// drag a victim's rate down fails this check. Zero disables it.
	MaxCNPAge sim.Time
}

func (o *RPOptions) fill() {
	if o.RecoveryTimer == 0 {
		o.RecoveryTimer = 200 * sim.Microsecond
	}
}

// rpDeltaFMbps is ΔF, the rate unit CNPs carry; it matches the CPs'
// (core.CPConfigForGbps).
const rpDeltaFMbps = 10

// maxQueueUnits bounds a host-computed CNP's raw queue observation: in
// ΔQ units of 600 B this is ~10 GB of queue, far past any real buffer.
const maxQueueUnits = 1 << 24

// FlowCC is the RoCC reaction point as a netsim flow controller: it paces
// the flow at the fair rate of its most congested CP and exponentially
// recovers when CNPs stop (§3.5).
type FlowCC struct {
	engine *sim.Engine
	host   *netsim.Host
	opts   RPOptions
	rmax   float64 // Mb/s: the NIC link rate, the most a flow may send

	rp       *core.RP
	hostCP   *core.HostCP
	lastCNPs map[core.CPKey]sim.Time
	pacer    netsim.Pacer
	timer    sim.Handle

	// Path-witness state (VerifyCPPath): the set of CPKeys on the
	// flow's path, learned at the first CNP; relearn asks for a
	// refresh after a reroute. Replays counts CNPs rejected for age.
	pathCPs map[core.CPKey]bool
	relearn bool
	Replays int

	// Telemetry (nil-safe; resolved from the host's network at build).
	rec  *telemetry.Recorder
	flow int64 // learned from the first packet seen, for event labelling
}

// NewFlowCC builds a reaction point for a flow originating at host. Its
// recovery timer runs on the host's engine.
func NewFlowCC(host *netsim.Host, opts RPOptions) *FlowCC {
	opts.fill()
	cc := &FlowCC{
		engine: host.Engine(),
		host:   host,
		opts:   opts,
		rmax:   host.NIC().LinkRate.Mbps(),
	}
	cfg := core.RPConfig{
		DeltaFMbps: rpDeltaFMbps,
		RmaxMbps:   cc.rmax,
		StaleK:     opts.StaleK,
	}
	if opts.VerifyCPPath {
		cfg.Witness = cc.witnessCP
	}
	cc.rp = core.NewRP(cfg)
	if opts.HostRegistry != nil {
		cc.hostCP = core.NewHostCP(opts.HostRegistry)
	}
	cc.rp.SetTelemetry(core.RPTelemetryFrom(host.Network().TelemetryRegistry()))
	cc.rec = host.Network().Recorder()
	return cc
}

// RP exposes the underlying Alg. 2 state for instrumentation.
func (cc *FlowCC) RP() *core.RP { return cc.rp }

// Allow implements netsim.FlowCC: unconstrained until the rate limiter is
// installed, then paced at the accepted fair rate.
func (cc *FlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	if !cc.rp.Installed() {
		return now, true
	}
	return cc.pacer.Next(now), true
}

// OnSent implements netsim.FlowCC.
func (cc *FlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	if cc.rp.Installed() {
		cc.pacer.Consume(now, netsim.Mbps(cc.rp.RateMbps()), pkt.Size)
	}
}

// OnAck implements netsim.FlowCC. RoCC does not use ACKs.
func (cc *FlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {}

// OnCNP implements netsim.FlowCC: Alg. 2's Process_CNP.
func (cc *FlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {
	info := pkt.CNP
	if info == nil {
		return
	}
	if cc.opts.MaxCNPAge > 0 && now-pkt.SendTS > cc.opts.MaxCNPAge {
		// Too old to describe the path's current state: a replayed (or
		// absurdly delayed) CNP must not steer the rate limiter.
		cc.Replays++
		cc.rp.CountRejected()
		return
	}
	if cc.opts.VerifyCPPath && (cc.pathCPs == nil || cc.relearn) {
		cc.learnPath(pkt.Flow)
	}
	cpKey := core.CPKey{Node: int64(info.CP.Node), Port: info.CP.Port}
	rateUnits := info.RateUnits
	if info.HostComputed {
		// Raw queue observations feed the local CP replica, which carries
		// state across CNPs — garbage here would poison every later rate,
		// not just this one. Reject it before Compute. Real queues are at
		// most a few MB (thousands of ΔQ units); 1<<24 units is ~10 GB.
		if info.QCurUnits < 0 || info.QOldUnits < 0 ||
			info.QCurUnits > maxQueueUnits || info.QOldUnits > maxQueueUnits {
			cc.rp.CountRejected()
			return
		}
		if cc.hostCP == nil {
			cc.hostCP = core.NewHostCP(nil)
		}
		if cc.lastCNPs == nil {
			cc.lastCNPs = make(map[core.CPKey]sim.Time)
		}
		// Catch up on intervals the CP computed but did not signal to
		// this flow (it was not contributing to the queue then, so the
		// queue it would have reported is approximated as empty). The
		// replica assumes the CP updates every defaultT.
		if last, ok := cc.lastCNPs[cpKey]; ok {
			missed := int((now-last)/defaultT) - 1
			if missed > 256 {
				missed = 256
			}
			for i := 0; i < missed; i++ {
				cc.hostCP.Compute(cpKey, 0, 0)
			}
		}
		cc.lastCNPs[cpKey] = now
		rateUnits = cc.hostCP.Compute(cpKey, info.QCurUnits, info.QOldUnits)
	}
	cc.flow = int64(pkt.Flow)
	if cc.rp.ProcessCNP(rateUnits, cpKey) {
		cc.recordRate(now)
		cc.resetTimer()
	}
}

// OnReroute implements netsim.RouteAware: a route reconvergence may have
// moved the flow onto a path with different congestion points, so the
// pinned CP's fair rate is suspect. Re-homing rides the existing StaleK
// machinery — SuspectStale is a no-op when staleness handling is
// disabled, preserving byte-identity for fabrics that opt out.
func (cc *FlowCC) OnReroute(now sim.Time) {
	cc.relearn = cc.pathCPs != nil // refresh the witness set at the next CNP
	cc.rp.SuspectStale()
}

// learnPath extends the witness set with the congestion points on the
// flow's current ECMP path. Entries accumulate across reroutes so a CNP
// emitted on the old path just before the switch-over still validates.
func (cc *FlowCC) learnPath(flow netsim.FlowID) {
	cc.relearn = false
	net := cc.host.Network()
	f := net.Flow(flow)
	if f == nil {
		return
	}
	cps := net.FlowPathCPs(flow, f.Src().ID(), f.Dst().ID())
	if len(cps) == 0 {
		return
	}
	if cc.pathCPs == nil {
		cc.pathCPs = make(map[core.CPKey]bool, len(cps))
	}
	for _, id := range cps {
		cc.pathCPs[core.CPKey{Node: int64(id.Node), Port: id.Port}] = true
	}
}

// witnessCP is the core.RPConfig.Witness hook: before the path is
// learned every origin validates (the first CNP both teaches the path
// and is judged against it — learnPath runs ahead of ProcessCNP in
// OnCNP, so a spoofed first CNP is still caught).
func (cc *FlowCC) witnessCP(cp core.CPKey) bool {
	return cc.pathCPs == nil || cc.pathCPs[cp]
}

// recordRate files the RP's current rate as a per-flow counter track, so
// the Chrome trace shows each flow's rate trajectory next to the CP's
// fair-rate signal and the queue depth.
func (cc *FlowCC) recordRate(now sim.Time) {
	cc.rec.Record(telemetry.Event{
		At:    int64(now),
		Kind:  telemetry.KindCounter,
		Cat:   "rocc",
		Name:  "rp_rate_mbps",
		Node:  int64(cc.host.ID()),
		Flow:  cc.flow,
		Value: cc.rp.RateMbps(),
	})
}

// CurrentRate implements netsim.FlowCC.
func (cc *FlowCC) CurrentRate() netsim.Rate {
	if !cc.rp.Installed() {
		return netsim.Mbps(cc.rmax)
	}
	return netsim.Mbps(cc.rp.RateMbps())
}

// Stop cancels the fast-recovery timer (flow teardown).
func (cc *FlowCC) Stop() {
	cc.timer.Cancel()
}

func (cc *FlowCC) resetTimer() {
	cc.timer.Cancel()
	// AfterCall with a package-level func: the recovery timer re-arms on
	// every accepted CNP, so it must not allocate a bound-method closure.
	cc.timer = cc.engine.AfterCall(cc.opts.RecoveryTimer, recoveryExpired, cc, nil)
}

// recoveryExpired is Alg. 2's Timer_Expired: double the rate, or uninstall
// the rate limiter once it exceeds Rmax.
func recoveryExpired(a, _ any) {
	cc := a.(*FlowCC)
	cc.timer = sim.Handle{}
	if cc.rp.TimerExpired() {
		// Rate limiter removed; the flow transmits unconstrained until
		// the next CNP. No timer needed.
		cc.pacer.Reset()
	} else {
		cc.recordRate(cc.engine.Now())
		cc.resetTimer()
	}
	cc.host.Kick()
}
