package dctcp

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Ops is DCTCP's netsim.CongestionOps descriptor: threshold ECN markers
// on switch egress ports, CE-echoing receivers, and the α-scaled window
// controller with per-packet ACKs.
type Ops struct {
	// BaseRTT parameterizes the window controller's RTT target.
	BaseRTT sim.Time
}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "DCTCP" }

// Features implements netsim.CongestionOps: the CE echo rides a
// KindCNP packet in the ACK class.
func (o *Ops) Features() netsim.CCFeatures {
	return netsim.CCFeatures{UsesCNP: true, CNPClass: netsim.ClassAck}
}

// AttachPort implements netsim.CongestionOps.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	return NewMarker(DefaultConfig(port.LinkRate.Gbps(), o.BaseRTT))
}

// NewReceiver implements netsim.CongestionOps: echo CE marks back to the
// sender.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook {
	return NewReceiver(h)
}

// NewFlowCC implements netsim.CongestionOps.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	return NewFlowCC(src, DefaultConfig(src.NIC().LinkRate.Gbps(), o.BaseRTT))
}

// AckEvery implements netsim.CongestionOps: DCTCP windows on per-packet
// ACKs.
func (o *Ops) AckEvery(src *netsim.Host) int { return 1 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (m *Marker) CCProtocol() string { return "DCTCP" }
