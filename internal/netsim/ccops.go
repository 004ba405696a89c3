package netsim

import "fmt"

// CongestionOps bundles everything one congestion-control scheme needs
// wired into a fabric — the shape of ns-3's RdmaCongestionOps, adapted to
// this simulator's split between switch-side attachments (PortCC),
// destination-side hooks (ReceiverHook) and per-flow controllers (FlowCC).
// A scheme implements it once; the experiments layer then composes any
// set of schemes on one network, attaching the union of their switch and
// receiver elements and handing each flow its own controller.
//
// Implementations are per-fabric descriptors, not singletons: one
// CongestionOps instance serves one network and may carry shared state
// (an RNG for probabilistic marking, a table of attached congestion
// points), so it must never be reused across networks.
type CongestionOps interface {
	// Name returns the scheme's canonical name ("RoCC", "DCQCN", ...),
	// used in conflict diagnostics and registry lookups.
	Name() string

	// Features reports the packet-level capacities the scheme needs from
	// the fabric. The composer applies the max over all schemes in play.
	Features() CCFeatures

	// AttachPort installs the scheme's switch-side element on one egress
	// port and returns it, or nil when the switch takes no action
	// (TIMELY). Placement on Port.CC is the caller's decision — a scheme
	// alone on a port is installed directly, schemes sharing a port go
	// behind a per-flow demultiplexer — so implementations must not
	// assume the returned value ends up on Port.CC verbatim.
	AttachPort(net *Network, sw *Switch, port *Port) PortCC

	// NewReceiver returns the scheme's destination-side hook for host h,
	// or nil when the receiver takes no protocol action.
	NewReceiver(net *Network, h *Host) ReceiverHook

	// NewFlowCC builds a per-flow controller for a flow sourced at src.
	NewFlowCC(net *Network, src *Host) FlowCC

	// AckEvery is the receiver ACK cadence flows of this scheme need:
	// 0 none, 1 per-packet (HPCC's INT echoes), N every N packets
	// (TIMELY's RTT sampling). Derived from the same configuration the
	// controller for src uses, so cadence follows the NIC rate.
	AckEvery(src *Host) int
}

// CCFeatures are the packet-level capacities a scheme requires. When
// several schemes share a fabric each capacity is sized to the maximum
// over the set.
type CCFeatures struct {
	// INTHops presizes pooled packets' INT and EchoINT stacks to this
	// hop count so per-hop stamping never grows an allocation in the hot
	// path. Zero for schemes that do not use INT.
	INTHops int

	// ExtraHeaderBytes is the per-data-packet wire overhead the scheme
	// imposes (HPCC's INT stack).
	ExtraHeaderBytes int
}

// ProtocolNamer is implemented by switch-side attachments that can report
// which scheme installed them. The experiments composer uses it to name
// both sides of a port double-attach conflict instead of overwriting
// silently.
type ProtocolNamer interface {
	CCProtocol() string
}

// CCProtocolName names a port attachment for diagnostics: the installing
// scheme when known, otherwise the concrete type.
func CCProtocolName(cc PortCC) string {
	if cc == nil {
		return "none"
	}
	if n, ok := cc.(ProtocolNamer); ok {
		return n.CCProtocol()
	}
	return fmt.Sprintf("%T", cc)
}
