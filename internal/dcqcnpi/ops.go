package dcqcnpi

import (
	"rocc/internal/dcqcn"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Ops is DCQCN+PI's netsim.CongestionOps descriptor: the PI marker on
// switch egress ports with DCQCN's unchanged endpoints (receiver CNPs and
// the g/α rate controller).
type Ops struct {
	// Rand seeds probabilistic marking; every marker splits its own
	// stream off it, in attach order.
	Rand *sim.Rand
}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "DCQCN+PI" }

// Features implements netsim.CongestionOps.
func (o *Ops) Features() netsim.CCFeatures {
	return netsim.CCFeatures{UsesCNP: true, CNPClass: netsim.ClassCtrl}
}

// AttachPort implements netsim.CongestionOps: install the PI marker and
// start its probability-update timer.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	// Per-marker stream (see dcqcn.Ops.AttachPort).
	return Attach(net, port, DefaultConfig(port.LinkRate.Gbps()), o.Rand.Split())
}

// NewReceiver implements netsim.CongestionOps: DCQCN's receiver,
// unchanged.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook {
	return dcqcn.NewReceiver(DefaultEndpoint(h.NIC().LinkRate.Gbps()), h)
}

// NewFlowCC implements netsim.CongestionOps: DCQCN's sender, unchanged.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	return dcqcn.NewFlowCC(src, DefaultEndpoint(src.NIC().LinkRate.Gbps()))
}

// AckEvery implements netsim.CongestionOps: no flow ACKs needed.
func (o *Ops) AckEvery(src *netsim.Host) int { return 0 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (m *Marker) CCProtocol() string { return "DCQCN+PI" }
