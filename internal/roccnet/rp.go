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
	host *netsim.Host

	// The RPOptions read after construction.
	recoveryTimer sim.Time
	maxCNPAge     sim.Time
	verifyCPPath  bool

	rp    core.RP
	pacer netsim.Pacer
	timer sim.Handle

	// rare holds the host-computed and path-witness state, allocated on
	// first use: most flows never need it.
	rare *rpRare

	// Replays counts CNPs rejected for age (RPOptions.MaxCNPAge).
	Replays int

	flow int64 // learned from the first packet seen, for event labelling
}

// rpRare is a reaction point's state for the §3.6 host-computed mode
// (hostCP, lastCNPs) and the forged-feedback defense (pathCPs: the
// CPKeys on the flow's path, learned at the first CNP; relearn asks for
// a refresh after a reroute).
type rpRare struct {
	hostCP   *core.HostCP
	lastCNPs map[core.CPKey]sim.Time
	pathCPs  map[core.CPKey]bool
	relearn  bool
}

// NewFlowCC builds a reaction point for a flow originating at host. Its
// recovery timer runs on the host's engine.
func NewFlowCC(host *netsim.Host, opts RPOptions) *FlowCC {
	return newFlowCC(host, opts, core.RPTelemetryFrom(host.Network().TelemetryRegistry()))
}

// newFlowCC is NewFlowCC with the network's RP counter mirrors resolved.
func newFlowCC(host *netsim.Host, opts RPOptions, tm *core.RPTelemetry) *FlowCC {
	opts.fill()
	cc := &FlowCC{
		host:          host,
		recoveryTimer: opts.RecoveryTimer,
		maxCNPAge:     opts.MaxCNPAge,
		verifyCPPath:  opts.VerifyCPPath,
	}
	cfg := core.RPConfig{
		DeltaFMbps: rpDeltaFMbps,
		RmaxMbps:   host.NIC().LinkRate.Mbps(),
		StaleK:     opts.StaleK,
	}
	if opts.VerifyCPPath {
		cfg.Witness = cc.witnessCP
	}
	cc.rp.Init(cfg)
	if opts.HostRegistry != nil {
		cc.rare = &rpRare{hostCP: core.NewHostCP(opts.HostRegistry)}
	}
	cc.rp.SetTelemetry(tm)
	return cc
}

// rareState returns the flow's rare state, allocating it on first use.
func (cc *FlowCC) rareState() *rpRare {
	if cc.rare == nil {
		cc.rare = &rpRare{}
	}
	return cc.rare
}

// RP exposes the underlying Alg. 2 state for instrumentation.
func (cc *FlowCC) RP() *core.RP { return &cc.rp }

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
	info := pkt.CNP()
	if info == nil {
		return
	}
	if cc.maxCNPAge > 0 && now-pkt.SendTS > cc.maxCNPAge {
		// Too old to describe the path's current state: a replayed (or
		// absurdly delayed) CNP must not steer the rate limiter.
		cc.Replays++
		cc.rp.CountRejected()
		return
	}
	if cc.verifyCPPath && (cc.rare == nil || cc.rare.pathCPs == nil || cc.rare.relearn) {
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
		r := cc.rareState()
		if r.hostCP == nil {
			r.hostCP = core.NewHostCP(nil)
		}
		if r.lastCNPs == nil {
			r.lastCNPs = make(map[core.CPKey]sim.Time)
		}
		// Catch up on intervals the CP computed but did not signal to
		// this flow (it was not contributing to the queue then, so the
		// queue it would have reported is approximated as empty). The
		// replica assumes the CP updates every defaultT.
		if last, ok := r.lastCNPs[cpKey]; ok {
			missed := int((now-last)/defaultT) - 1
			if missed > 256 {
				missed = 256
			}
			for i := 0; i < missed; i++ {
				r.hostCP.Compute(cpKey, 0, 0)
			}
		}
		r.lastCNPs[cpKey] = now
		rateUnits = r.hostCP.Compute(cpKey, info.QCurUnits, info.QOldUnits)
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
	if r := cc.rare; r != nil {
		r.relearn = r.pathCPs != nil // refresh the witness set at the next CNP
	}
	cc.rp.SuspectStale()
}

// learnPath extends the witness set with the congestion points on the
// flow's current ECMP path. Entries accumulate across reroutes so a CNP
// emitted on the old path just before the switch-over still validates.
func (cc *FlowCC) learnPath(flow netsim.FlowID) {
	r := cc.rareState()
	r.relearn = false
	net := cc.host.Network()
	f := net.Flow(flow)
	if f == nil {
		return
	}
	cps := net.FlowPathCPs(flow, f.Src().ID(), f.Dst().ID())
	if len(cps) == 0 {
		return
	}
	if r.pathCPs == nil {
		r.pathCPs = make(map[core.CPKey]bool, len(cps))
	}
	for _, id := range cps {
		r.pathCPs[core.CPKey{Node: int64(id.Node), Port: id.Port}] = true
	}
}

// witnessCP is the core.RPConfig.Witness hook: before the path is
// learned every origin validates (the first CNP both teaches the path
// and is judged against it — learnPath runs ahead of ProcessCNP in
// OnCNP, so a spoofed first CNP is still caught).
func (cc *FlowCC) witnessCP(cp core.CPKey) bool {
	return cc.rare == nil || cc.rare.pathCPs == nil || cc.rare.pathCPs[cp]
}

// recordRate files the RP's current rate as a per-flow counter track, so
// the Chrome trace shows each flow's rate trajectory next to the CP's
// fair-rate signal and the queue depth. The recorder is the network's,
// nil when none is attached.
func (cc *FlowCC) recordRate(now sim.Time) {
	rec := cc.host.Network().Recorder()
	if rec == nil {
		return
	}
	rec.Record(telemetry.Event{
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
		return cc.host.NIC().LinkRate
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
	cc.timer = cc.host.Engine().AfterCall(cc.recoveryTimer, recoveryExpired, cc, nil)
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
		cc.recordRate(cc.host.Engine().Now())
		cc.resetTimer()
	}
	cc.host.Kick()
}
