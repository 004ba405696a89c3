package qcn

import "rocc/internal/netsim"

// Ops is QCN's netsim.CongestionOps descriptor: sampling congestion
// points on switch egress ports and byte-counter/timer reaction points
// per flow. Layer-2 feedback needs no receiver hook and no flow ACKs.
type Ops struct{}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "QCN" }

// Features implements netsim.CongestionOps.
func (o *Ops) Features() netsim.CCFeatures {
	return netsim.CCFeatures{UsesCNP: true, CNPClass: netsim.ClassCtrl}
}

// AttachPort implements netsim.CongestionOps.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	return AttachCP(net, sw, port, DefaultConfig(port.LinkRate.Gbps()))
}

// NewReceiver implements netsim.CongestionOps: no receiver action.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook { return nil }

// NewFlowCC implements netsim.CongestionOps.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	return NewFlowCC(src, DefaultConfig(src.NIC().LinkRate.Gbps()))
}

// AckEvery implements netsim.CongestionOps: QCN needs no flow ACKs.
func (o *Ops) AckEvery(src *netsim.Host) int { return 0 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (cp *CP) CCProtocol() string { return "QCN" }
