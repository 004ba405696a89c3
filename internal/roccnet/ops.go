package roccnet

import (
	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/telemetry"
)

// Ops is RoCC's netsim.CongestionOps descriptor: congestion points on
// switch egress ports, reaction points as flow controllers, no receiver
// hook (CNPs come from switches), no ACK cadence requirement.
type Ops struct {
	cp CPOptions
	rp RPOptions

	// CPs collects attached congestion points for instrumentation,
	// keyed by port. Assign a shared map to observe attachments from
	// outside; NewOps allocates one otherwise.
	CPs map[*netsim.Port]*CP

	// rpTM is the rocc.rp.* mirror set every reaction point of the
	// fabric shares, resolved from rpReg, the registry the network held
	// when it was resolved.
	rpTM  *core.RPTelemetry
	rpReg *telemetry.Registry
}

// NewOps builds the RoCC descriptor: every port it wires gets a
// congestion point with options cp, every flow a reaction point with rp.
func NewOps(cp CPOptions, rp RPOptions) *Ops {
	return &Ops{cp: cp, rp: rp, CPs: make(map[*netsim.Port]*CP)}
}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "RoCC" }

// Features implements netsim.CongestionOps: no INT, no extra header.
func (o *Ops) Features() netsim.CCFeatures { return netsim.CCFeatures{} }

// AttachPort implements netsim.CongestionOps: install a congestion point
// and start its fair-rate timer.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	cp := Attach(net, sw, port, o.cp)
	o.CPs[port] = cp
	return cp
}

// NewReceiver implements netsim.CongestionOps: RoCC receivers take no
// protocol action.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook { return nil }

// NewFlowCC implements netsim.CongestionOps.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	if reg := net.TelemetryRegistry(); o.rpTM == nil || reg != o.rpReg {
		o.rpTM, o.rpReg = core.RPTelemetryFrom(reg), reg
	}
	return newFlowCC(src, o.rp, o.rpTM)
}

// AckEvery implements netsim.CongestionOps: RoCC needs no flow ACKs.
func (o *Ops) AckEvery(src *netsim.Host) int { return 0 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (cp *CP) CCProtocol() string { return "RoCC" }
