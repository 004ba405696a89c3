package dcqcn

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Ops is DCQCN's netsim.CongestionOps descriptor: RED-style markers on
// switch egress ports, CNP-generating receivers, and the g/α rate
// controller per flow. DefaultConfig derives parameters from each
// element's local link rate, so mixed-speed fabrics get correctly scaled
// marking curves and rate steps.
type Ops struct {
	// Rand seeds probabilistic marking: every marker built by this
	// descriptor splits its own stream off it, in attach order.
	Rand *sim.Rand
}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "DCQCN" }

// Features implements netsim.CongestionOps: no INT, no extra header.
func (o *Ops) Features() netsim.CCFeatures { return netsim.CCFeatures{} }

// AttachPort implements netsim.CongestionOps.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	// Each marker draws from its own stream, seeded deterministically
	// from the shared one at attach order: markers on different shards
	// draw concurrently, and a shared stream would race (and make draw
	// order partition-dependent).
	return NewMarker(DefaultConfig(port.LinkRate.Gbps()), o.Rand.Split())
}

// NewReceiver implements netsim.CongestionOps: at most one CNP per flow
// per CNPInterval when marked packets arrive.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook {
	return NewReceiver(DefaultConfig(h.NIC().LinkRate.Gbps()), h)
}

// NewFlowCC implements netsim.CongestionOps.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	return NewFlowCC(src, DefaultConfig(src.NIC().LinkRate.Gbps()))
}

// AckEvery implements netsim.CongestionOps: DCQCN needs no flow ACKs.
func (o *Ops) AckEvery(src *netsim.Host) int { return 0 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (m *Marker) CCProtocol() string { return "DCQCN" }
