package hpcc

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// INTOverheadBytes is the per-data-packet wire cost of HPCC's telemetry
// (the paper cites 42 B of INT for a 5-hop path).
const INTOverheadBytes = 42

// DefaultINTHops presizes pooled packets' INT buffers to the deepest
// path the experiment topologies use (fat-tree: host-leaf-spine-leaf-host
// is 4 stamping hops; 8 leaves headroom) so per-hop stamping never grows
// a backing array.
const DefaultINTHops = 8

// Ops is HPCC's netsim.CongestionOps descriptor: INT stampers on switch
// egress ports, per-packet ACK echoes, and the MeasureInflight/
// ComputeWind window controller.
type Ops struct {
	// BaseRTT is HPCC's T parameter.
	BaseRTT sim.Time
}

// Name implements netsim.CongestionOps.
func (o *Ops) Name() string { return "HPCC" }

// Features implements netsim.CongestionOps: INT presizing depth and the
// per-packet INT wire overhead.
func (o *Ops) Features() netsim.CCFeatures {
	return netsim.CCFeatures{INTHops: DefaultINTHops, ExtraHeaderBytes: INTOverheadBytes}
}

// AttachPort implements netsim.CongestionOps: stamp per-hop telemetry on
// departing data packets.
func (o *Ops) AttachPort(net *netsim.Network, sw *netsim.Switch, port *netsim.Port) netsim.PortCC {
	return NewStamper(port)
}

// NewReceiver implements netsim.CongestionOps: the flow layer's ACK
// echoes already carry the INT stack; no extra hook.
func (o *Ops) NewReceiver(net *netsim.Network, h *netsim.Host) netsim.ReceiverHook { return nil }

// NewFlowCC implements netsim.CongestionOps.
func (o *Ops) NewFlowCC(net *netsim.Network, src *netsim.Host) netsim.FlowCC {
	return NewFlowCC(src, DefaultConfig(src.NIC().LinkRate.Gbps(), o.BaseRTT))
}

// AckEvery implements netsim.CongestionOps: HPCC needs the INT echo on
// every packet.
func (o *Ops) AckEvery(src *netsim.Host) int { return 1 }

// CCProtocol implements netsim.ProtocolNamer for conflict diagnostics.
func (s *Stamper) CCProtocol() string { return "HPCC" }
