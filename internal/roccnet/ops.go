package roccnet

import (
	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/telemetry"
)

// Ops is RoCC's netsim.CongestionOps descriptor: congestion points on
// switch egress ports, reaction points as flow controllers, no receiver
// hook (CNPs come from switches), no ACK cadence requirement.
//
// CP and RP point at the composer's live option structs so ablation hooks
// that mutate options between construction and wiring (fig. 13's table
// sweep, the chaos runner's StaleK) keep working: options are read at
// attach / flow-start time, exactly as the pre-descriptor stack did.
type Ops struct {
	CP *CPOptions
	RP *RPOptions

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

// NewOps builds the RoCC descriptor around live CP/RP option structs.
func NewOps(cp *CPOptions, rp *RPOptions) *Ops {
	return &Ops{CP: cp, RP: rp, CPs: make(map[*netsim.Port]*CP)}
}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "RoCC" }

// Features implements netsim.CongestionOps.
func (o *Ops) Features() netsim.CCFeatures {
	return netsim.CCFeatures{UsesCNP: true, CNPClass: o.CP.CNPClass}
}

// AttachPort implements netsim.CongestionOps: install a congestion point
// and start its fair-rate timer.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	cp := Attach(net, sw, port, *o.CP)
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
	return newFlowCC(src, *o.RP, o.rpTM)
}

// AckEvery implements netsim.CongestionOps: RoCC needs no flow ACKs.
func (o *Ops) AckEvery(src *netsim.Host) int { return 0 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (cp *CP) CCProtocol() string { return "RoCC" }
