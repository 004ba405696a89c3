package core

// HostCP implements the §3.6 deployment option: the switch does not run
// the PI controller; its CNP carries only the raw queue observation (Qcur
// in ΔQ units) and the host replicates the fair-rate computation using a
// local parameter registry. Each (flow, CP) pair maintains one replica so
// Qold is tracked per congestion point, and the resulting rate feeds the
// ordinary RP acceptance rule.
type HostCP struct {
	registry func(cp CPKey) CPConfig // per-CP parameter lookup (§3.6 option 2)
	replicas map[CPKey]*CP
}

// NewHostCP builds a host-side fair-rate computer. registry resolves the
// CP parameters for a congestion point; a nil registry uses the 40G
// defaults everywhere.
func NewHostCP(registry func(cp CPKey) CPConfig) *HostCP {
	if registry == nil {
		registry = func(CPKey) CPConfig { return CPConfig40G() }
	}
	return &HostCP{registry: registry, replicas: make(map[CPKey]*CP)}
}

// Compute runs one fair-rate iteration for the given CP from its raw
// queue observations (current and previous, both in ΔQ units — the CNP
// carries both per §3.6 option 1, because the host does not see every CP
// interval and a locally tracked Qold would be stale). It returns the
// rate in ΔF units exactly as a switch-computed CNP would carry.
func (h *HostCP) Compute(cp CPKey, qcurUnits, qoldUnits int) int {
	rep, ok := h.replicas[cp]
	if !ok {
		rep = NewCP(h.registry(cp))
		h.replicas[cp] = rep
	}
	rep.SetQoldUnits(qoldUnits)
	return rep.Update(qcurUnits * rep.cfg.DeltaQBytes)
}
