package timely

import "rocc/internal/netsim"

// Ops is TIMELY's netsim.CongestionOps descriptor: no switch element, no
// receiver hook — just the RTT-gradient controller per flow plus the ACK
// cadence its RTT sampling needs. Both come from DefaultConfig at the
// source's NIC rate, so the cadence always matches the controller.
type Ops struct{}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "TIMELY" }

// Features implements netsim.CongestionOps: RTT-only, no CNPs, no INT.
func (o *Ops) Features() netsim.CCFeatures { return netsim.CCFeatures{} }

// AttachPort implements netsim.CongestionOps: the switch takes no action.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	return nil
}

// NewReceiver implements netsim.CongestionOps: no receiver action.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook { return nil }

// NewFlowCC implements netsim.CongestionOps.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	return NewFlowCC(src, DefaultConfig(src.NIC().LinkRate.Gbps()))
}

// AckEvery implements netsim.CongestionOps: the RTT sampling cadence of
// the controller configuration for this source.
func (o *Ops) AckEvery(src *netsim.Host) int {
	return DefaultConfig(src.NIC().LinkRate.Gbps()).AckEvery
}
