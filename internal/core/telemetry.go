package core

import "rocc/internal/telemetry"

// RPTelemetry mirrors the RP's instrumentation counters into a metrics
// registry, so per-flow reaction points aggregate into one set of
// network-wide counters. The RPs of one network share one RPTelemetry.
type RPTelemetry struct {
	CNPsAccepted    *telemetry.Counter
	CNPsIgnored     *telemetry.Counter
	CNPsRejected    *telemetry.Counter
	Recoveries      *telemetry.Counter
	StaleRecoveries *telemetry.Counter
}

// RPTelemetryFrom resolves the standard rocc.rp.* counter set from a
// registry. A nil registry yields nil, the disabled state.
func RPTelemetryFrom(reg *telemetry.Registry) *RPTelemetry {
	if reg == nil {
		return nil
	}
	return &RPTelemetry{
		CNPsAccepted:    reg.Counter("rocc.rp.cnps_accepted"),
		CNPsIgnored:     reg.Counter("rocc.rp.cnps_ignored"),
		CNPsRejected:    reg.Counter("rocc.rp.cnps_rejected"),
		Recoveries:      reg.Counter("rocc.rp.recoveries"),
		StaleRecoveries: reg.Counter("rocc.rp.stale_recoveries"),
	}
}

// noRPTelemetry is the disabled mirror set, every counter nil (a nil
// counter ignores Inc). It is never written, so every RP may share it.
var noRPTelemetry RPTelemetry

// SetTelemetry attaches registry-backed mirrors of the RP counters; nil
// detaches them.
func (rp *RP) SetTelemetry(t *RPTelemetry) {
	if t == nil {
		t = &noRPTelemetry
	}
	rp.tm = t
}

// CountRejected records one malformed CNP discarded before it reached
// ProcessCNP (callers validate transport-level fields the core never
// sees, e.g. host-computed queue observations).
func (rp *RP) CountRejected() {
	rp.CNPsRejected++
	rp.tm.CNPsRejected.Inc()
}
