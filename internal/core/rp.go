package core

import (
	"fmt"
	"math"
)

// CPKey identifies a congestion point across the network, used by the RP's
// CNP acceptance rule (Alg. 2 line 4).
type CPKey struct {
	Node int64
	Port int
}

// NoCP is the zero CPKey, meaning "no CNP accepted yet".
var NoCP = CPKey{}

// RPConfig holds the reaction-point parameters.
type RPConfig struct {
	DeltaFMbps float64 // ΔF, must match the CPs' configuration
	RmaxMbps   float64 // maximum send rate, usually the NIC link bandwidth

	// MaxRateUnits bounds the fair rate a CNP may carry before the RP
	// rejects it as corrupt. Zero selects the default: a generous
	// multiple of Rmax/ΔF (CPs on faster links legitimately advertise
	// rates above this NIC's bandwidth, so the bound only catches
	// garbage, not cross-speed feedback). Negative disables the bound.
	MaxRateUnits int

	// StaleK is the number of consecutive fast-recovery expiries without
	// an accepted CNP after which the RP declares its feedback stale and
	// unpins the congestion point (see TimerExpired). Zero or negative
	// disables staleness handling — the default, because CPs also go
	// silent legitimately (queue drained below the signalling floor) and
	// re-homing then would alter fault-free trajectories. Deployments
	// expecting feedback loss set DefaultStaleK.
	StaleK int

	// Witness, when set, is the forged-feedback defense: a CNP whose
	// congestion point the witness does not recognize — a CP id never
	// seen on this flow's path — is rejected before it can steer the
	// rate limiter, exactly like corrupt rate units. Nil (the default)
	// preserves the historical accept-any-origin behaviour; deployments
	// expecting spoofed CNPs wire a path-derived witness (the simulator
	// uses netsim.FlowPathCPs).
	Witness func(cp CPKey) bool
}

// rejectFactor is the slack on MaxRateUnits' default: CPs on links up to
// rejectFactor times faster than this NIC stay within the bound.
const rejectFactor = 16

// DefaultStaleK is the recommended consecutive-expiry threshold for
// declaring feedback stale: short enough to re-home within a few
// recovery intervals of an outage, long enough that a single delayed
// CNP does not trigger it.
const DefaultStaleK = 3

func (c RPConfig) maxRateUnits() int {
	if c.MaxRateUnits != 0 {
		return c.MaxRateUnits
	}
	return int(rejectFactor * c.RmaxMbps / c.DeltaFMbps)
}

func (c RPConfig) staleK() int {
	if c.StaleK > 0 {
		return c.StaleK
	}
	return 0
}

// Validate reports configuration errors.
func (c RPConfig) Validate() error {
	if c.DeltaFMbps <= 0 {
		return fmt.Errorf("core: RP ΔF must be positive")
	}
	if c.RmaxMbps <= 0 {
		return fmt.Errorf("core: RP Rmax must be positive")
	}
	return nil
}

// RP is the per-flow reaction point (Alg. 2): it tracks the current send
// rate, accepts or rejects CNPs by the most-congested-CP rule, and doubles
// the rate during fast recovery. Timer scheduling is the caller's job —
// the simulator uses virtual-time events and the testbed real timers —
// via ProcessCNP's resetTimer result and TimerExpired.
type RP struct {
	cfg RPConfig

	rcur        float64 // current send rate in Mb/s
	cpcur       CPKey   // CP that generated the last accepted CNP
	staleStreak int     // consecutive timer expiries without an accepted CNP
	installed   bool    // rate limiter active
	stale       bool    // feedback declared stale; next valid CNP re-homes the flow

	// Counters for instrumentation and tests.
	CNPsAccepted    int
	CNPsIgnored     int
	CNPsRejected    int // malformed feedback discarded by validation
	CNPsSpoofed     int // CNPs rejected by the path witness (forged origin)
	Recoveries      int
	StaleRecoveries int // recoveries past the staleness threshold (feedback lost)
	Suspects        int // externally signalled path changes (SuspectStale)

	// tm mirrors the counters above into a registry (SetTelemetry).
	// Every RP of a network shares one; &noRPTelemetry when disabled.
	tm *RPTelemetry
}

// NewRP returns an uninstalled reaction point (the flow transmits at Rmax
// until the first CNP arrives, per §3.5).
func NewRP(cfg RPConfig) *RP {
	rp := new(RP)
	rp.Init(cfg)
	return rp
}

// Init makes rp an uninstalled reaction point, as NewRP does, in place:
// a controller that holds its RP by value builds it here.
func (rp *RP) Init(cfg RPConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*rp = RP{cfg: cfg, rcur: cfg.RmaxMbps, tm: &noRPTelemetry}
}

// Installed reports whether the rate limiter is active.
func (rp *RP) Installed() bool { return rp.installed }

// RateMbps returns the current send rate; meaningful while Installed.
func (rp *RP) RateMbps() float64 { return rp.rcur }

// RateBoundMbps returns the hard ceiling the RP's state machine can ever
// hold rcur at: the ValidCNP admission bound (MaxRateUnits × ΔF, default
// 16×Rmax for cross-speed CPs), or 0 when the bound is disabled. Any
// observed rate above this means validation was bypassed — the invariant
// the chaos monitors check.
func (rp *RP) RateBoundMbps() float64 {
	max := rp.cfg.maxRateUnits()
	if max <= 0 {
		return 0
	}
	return float64(max) * rp.cfg.DeltaFMbps
}

// ValidCNP reports whether a CNP's rate units are plausible feedback:
// non-negative, finite once scaled by ΔF, and within the configured
// bound. Corrupt feedback (bit flips, malicious or buggy CPs) fails here
// and must not steer the rate limiter.
func (rp *RP) ValidCNP(rateUnits int) bool {
	if rateUnits < 0 {
		return false
	}
	if max := rp.cfg.maxRateUnits(); max > 0 && rateUnits > max {
		return false
	}
	rrcvd := float64(rateUnits) * rp.cfg.DeltaFMbps
	return !math.IsNaN(rrcvd) && !math.IsInf(rrcvd, 0)
}

// ValidCNPFrom extends ValidCNP with the origin check: when a Witness is
// configured, a CNP claiming a congestion point the flow's packets never
// traversed is forged feedback and fails validation. With no Witness the
// check reduces to ValidCNP.
func (rp *RP) ValidCNPFrom(rateUnits int, cp CPKey) bool {
	if !rp.ValidCNP(rateUnits) {
		return false
	}
	if rp.cfg.Witness != nil && !rp.cfg.Witness(cp) {
		rp.CNPsSpoofed++
		return false
	}
	return true
}

// ProcessCNP implements Process_CNP (Alg. 2 lines 1-7). rateUnits is the
// fair rate from the CNP in ΔF units and cp identifies its origin. It
// returns whether the CNP was accepted, in which case the caller must
// (re)arm the fast-recovery timer. Malformed feedback is rejected before
// it can touch the rate (graceful degradation under corruption).
func (rp *RP) ProcessCNP(rateUnits int, cp CPKey) (accepted bool) {
	if !rp.ValidCNPFrom(rateUnits, cp) {
		rp.CountRejected()
		return false
	}
	rrcvd := float64(rateUnits) * rp.cfg.DeltaFMbps // Line 2
	if !rp.installed {
		// First CNP installs the rate limiter.
		rp.installed = true
		rp.rcur = rrcvd
		rp.cpcur = cp
		rp.CNPsAccepted++
		rp.tm.CNPsAccepted.Inc()
		rp.staleStreak = 0
		rp.stale = false
		return true
	}
	// Line 4, with one extension: after a declared feedback outage (see
	// TimerExpired) the doubled rcur is a guess, so the first fresh
	// feedback is accepted unconditionally, exactly like the initial
	// install. A boolean carries the stale state — comparing cpcur
	// against NoCP would collide with a legitimate CP at node 0, port 0.
	if rrcvd <= rp.rcur || cp == rp.cpcur || rp.stale {
		rp.rcur = rrcvd // Line 5
		rp.cpcur = cp   // Line 6
		rp.CNPsAccepted++
		rp.tm.CNPsAccepted.Inc()
		rp.staleStreak = 0
		rp.stale = false
		return true // Line 7: Reset_Timer
	}
	rp.CNPsIgnored++
	rp.tm.CNPsIgnored.Inc()
	return false
}

// SuspectStale unpins the congestion point on external evidence of a
// path change — the network's route-reconvergence notification. The
// flow's packets may now traverse different CPs, so the pinned CP's last
// fair rate no longer describes the path; unpinning makes ProcessCNP
// accept the next valid CNP from any CP unconditionally (the same
// re-homing the StaleK expiry path provides, without waiting for the
// recovery timer to notice the silence). A no-op unless staleness
// handling is configured and a CP is pinned, so fabrics that opt out of
// StaleK keep byte-identical trajectories.
func (rp *RP) SuspectStale() {
	if rp.cfg.staleK() <= 0 || !rp.installed || rp.stale {
		return
	}
	rp.cpcur = NoCP
	rp.stale = true
	rp.Suspects++
}

// TimerExpired implements Timer_Expired (Alg. 2 lines 8-13). It returns
// uninstall=true when the rate limiter should be removed (the flow then
// transmits unconstrained); otherwise the caller re-arms the timer.
//
// Every expiry means one recovery interval passed without an accepted
// CNP. After StaleK consecutive expiries the RP declares its feedback
// stale — the pinned CP has stopped talking (lost CNPs, a downed link,
// a stalled CP timer) — and unpins cpcur while it keeps doubling. The
// unpinned state makes ProcessCNP accept the next valid CNP from *any*
// congestion point unconditionally (like the initial install), so the
// flow re-homes in one CNP instead of ignoring higher-rate feedback
// against a dead CP's last rate until the doubling cascade catches up.
func (rp *RP) TimerExpired() (uninstall bool) {
	if !rp.installed {
		return true
	}
	if rp.rcur > rp.cfg.RmaxMbps { // Line 9
		rp.installed = false // Line 10: remove the rate limiter
		rp.rcur = rp.cfg.RmaxMbps
		rp.cpcur = NoCP
		rp.staleStreak = 0
		rp.stale = false
		return true
	}
	rp.rcur *= 2 // Line 12: exponential fast recovery
	rp.Recoveries++
	rp.tm.Recoveries.Inc()
	if k := rp.cfg.staleK(); k > 0 {
		rp.staleStreak++
		if rp.staleStreak >= k {
			rp.cpcur = NoCP
			rp.stale = true
			rp.StaleRecoveries++
			rp.tm.StaleRecoveries.Inc()
		}
	}
	return false // Line 13: Reset_Timer
}
