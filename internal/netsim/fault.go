package netsim

import "rocc/internal/sim"

// FaultHook intercepts packets the moment they finish serializing on a
// port and are about to propagate to the link peer. It is the seam the
// fault-injection layer (internal/faults) attaches to: the simulator
// calls it for every packet on a link — data, ACKs, CNPs and PFC pause
// frames alike — and the hook decides the packet's fate. Ports without a
// hook behave exactly as if this file did not exist (no extra events, no
// RNG draws), so fault-free runs are byte-identical with or without the
// layer compiled in.
type FaultHook interface {
	// OnTransmit returns the fate of pkt on this link. The hook may
	// mangle pkt in place (a corrupted CNP's payload), but never keeps
	// or replaces it.
	OnTransmit(now sim.Time, pkt *Packet) FaultVerdict
}

// FaultVerdict is a FaultHook's decision for one packet. The zero
// verdict delivers the packet unharmed.
type FaultVerdict struct {
	// Drop loses the packet on the link.
	Drop bool

	// ExtraDelay is added to the link's propagation delay, landing the
	// packet behind later transmissions (reordering / late feedback).
	ExtraDelay sim.Time

	// Duplicate delivers a second, cloned copy of the packet.
	Duplicate bool
}

// pfcResetter is implemented by nodes whose sent-pause bookkeeping must
// be cleared when one of their links re-establishes (see Port.SetLinkDown).
type pfcResetter interface {
	resetPFC(portIndex int)
}
