// Package adversary models misbehaving participants — and the
// switch-side defenses against them — for the RoCC reproduction. Where
// internal/faults perturbs the *environment* (lossy links, stalled
// timers, dead switches), this package perturbs the *actors*: senders
// that ignore congestion feedback (its tests also forge CNPs, against
// the reaction point's path witness). The defenses are the two mechanisms deployed fabrics actually run: a
// per-flow compliance policer that quarantines flows sustained above
// their advertised fair share, and a PFC storm watchdog that disables
// the lossless class on a port whose pause has been asserted past a
// deadline.
//
// The paper's leverage appears exactly here: RoCC's fair rate is
// computed *by the switch*, so the switch knows what each flow was told
// and can police deviations; end-host schemes (DCQCN, TIMELY, DCTCP)
// only ever advise the sender and have nothing to enforce against.
//
// Design rules, shared with internal/faults:
//
//   - Deterministic: nothing here draws random numbers. Rogue wrappers,
//     policers and watchdogs are pure functions of simulated
//     time and the traffic they observe, so two runs with the same seeds
//     produce identical attack and defense sequences.
//
//   - Pay for what you use: a fabric with no adversary attachments runs
//     byte-identical to one where this package was never imported — the
//     netsim seams (Switch.Police, Port.SetLosslessOff) are nil/false by
//     default and cost at most a nil check per packet. A watchdog
//     attached to a storm-free fabric observes but never mutates, so its
//     presence preserves trajectories too (the zero-fault identity
//     contract, tested in watchdog_test.go).
//
//   - Injection sits at the simulator's seams (netsim.FlowCC wrapping,
//     Host.Send, Switch.Police), never inside the algorithms: every
//     protocol sees rogues only as traffic that ignores feedback, and
//     defenses only as drops.
package adversary

import (
	"rocc/internal/netsim"
	"rocc/internal/telemetry"
)

// record files an instant event into the network's flight recorder
// (nil-safe), tagging the defense action with its switch and either the
// flow it polices or the port it acts on (zero when not applicable).
func record(net *netsim.Network, name string, node netsim.NodeID, flow netsim.FlowID, port int, value float64) {
	net.Recorder().Record(telemetry.Event{
		At:    int64(net.Engine.Now()),
		Kind:  telemetry.KindInstant,
		Cat:   "adversary",
		Name:  name,
		Node:  int64(node),
		Tid:   int64(port),
		Flow:  int64(flow),
		Value: value,
	})
}
