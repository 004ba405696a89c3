package netsim

import "rocc/internal/sim"

// Host models an RDMA endpoint: a NIC with per-flow rate limiters
// (reaction points), a pull-based packet scheduler, and receiver logic with
// optional go-back-N reliability.
//
// The NIC never queues data internally: when its link goes idle it pulls
// the next packet from the eligible flow whose pacing deadline is earliest,
// matching how an RDMA NIC arbitrates between rate-limited queue pairs.
type Host struct {
	net  *Network
	id   NodeID
	Name string
	nic  [1]*Port // the single NIC port; an array so that Ports need not allocate

	// RPDelay is the NIC reaction delay applied to incoming congestion
	// notifications before the flow controller sees them (15 µs in §6).
	RPDelay sim.Time

	// Receiver is the protocol hook run for every arriving data packet
	// (e.g. DCQCN's receiver-side CNP generation).
	Receiver ReceiverHook

	flows   []*Flow // sending flows
	rrIndex int
	wake    sim.Handle

	// mayRemove is set when one of flows may have become removable (it
	// was stopped, or sent or had acknowledged its last byte); refill
	// compacts flows only then.
	mayRemove bool

	// eng is the shard engine this host's events run on (shard 0 until
	// EnableSharding re-homes the host).
	eng   *sim.Engine
	shard int

	// Counters.
	RxDataBytes uint64
	CNPsRx      uint64
}

// ID returns the host's node id.
func (h *Host) ID() NodeID { return h.id }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Engine returns the shard engine this host's events run on. Per-flow
// controllers (reaction points) must schedule their timers here, not on
// the network's global lane.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Ports returns the host's single NIC port, or nothing before the host
// is connected.
func (h *Host) Ports() []*Port {
	if h.nic[0] == nil {
		return nil
	}
	return h.nic[:]
}

// NIC returns the host's NIC port.
func (h *Host) NIC() *Port { return h.nic[0] }

// Kick re-arms the NIC scheduler. Flow controllers call this (through
// Network.Kick) after timers change pacing state.
func (h *Host) Kick() { h.nic[0].kick() }

// addFlow registers a sending flow with the NIC scheduler.
func (h *Host) addFlow(f *Flow) {
	h.flows = append(h.flows, f)
	h.nic[0].kick()
}

// refill is the NIC pull hook: pick the next transmittable packet, or
// schedule a wake-up at the earliest pacing deadline.
func (h *Host) refill() *Packet {
	now := h.eng.Now()
	if h.mayRemove {
		h.cleanup()
	}
	n := len(h.flows)
	if n == 0 {
		return nil
	}
	var chosen *Flow
	earliest := sim.Time(-1)
	// Round-robin over flows so simultaneously-eligible flows share the
	// NIC fairly.
	for i := 0; i < n; i++ {
		idx := (h.rrIndex + 1 + i) % n
		f := h.flows[idx]
		at, ok := f.allow(now)
		if !ok {
			continue
		}
		if at <= now {
			chosen = f
			h.rrIndex = idx
			break
		}
		if earliest < 0 || at < earliest {
			earliest = at
		}
	}
	if chosen != nil {
		return chosen.makePacket(now)
	}
	if earliest >= 0 {
		h.scheduleWake(earliest)
	}
	return nil
}

// cleanup drops flows that finished sending (and, when reliable, are fully
// acknowledged) from the scheduler.
func (h *Host) cleanup() {
	h.mayRemove = false
	out := h.flows[:0]
	for _, f := range h.flows {
		if !f.removable() {
			out = append(out, f)
		}
	}
	for i := len(out); i < len(h.flows); i++ {
		h.flows[i] = nil
	}
	h.flows = out
	if h.rrIndex >= len(h.flows) {
		h.rrIndex = 0
	}
}

func (h *Host) scheduleWake(at sim.Time) {
	if !h.wake.Cancelled() && h.wake.At() <= at {
		return
	}
	h.wake.Cancel()
	h.wake = h.eng.AtCall(at, hostWake, h, nil)
}

// hostWake re-arms the NIC scheduler; scheduled via AtCall so pacing
// wake-ups reuse pooled event slots instead of allocating a closure.
func hostWake(a, _ any) { a.(*Host).nic[0].kick() }

// hostCNPReady delivers a CNP to its flow's reaction point after the NIC
// reaction delay. The flow is looked up at fire time (flow ids are never
// reused) so a flow torn down during the delay drops the CNP, matching
// the pre-pool closure's registry re-check. The packet is owned by this
// event and released here.
func hostCNPReady(a, b any) {
	h := a.(*Host)
	pkt := b.(*Packet)
	if f := h.net.Flow(pkt.Flow); f != nil {
		f.CC.OnCNP(h.eng.Now(), pkt)
		h.nic[0].kick()
	}
	h.net.ReleasePacket(pkt)
}

// Arrive implements Node. The host is a terminal point for every packet
// kind except CNPs, whose ownership moves to the reaction-delay event:
// data, ACKs and pause frames are absorbed here and released back to the
// pool once the flow/receiver hooks — which may read but not retain the
// packet — have run.
func (h *Host) Arrive(pkt *Packet, inPort int) {
	pkt.checkLive("host arrive")
	now := h.eng.Now()
	switch pkt.Kind {
	case KindPause:
		if h.nic[0].acceptPause(pkt) {
			h.nic[0].SetPaused(pkt.PauseOn)
		}
		h.net.ReleasePacket(pkt)
	case KindData:
		h.RxDataBytes += uint64(pkt.Size)
		f := h.net.Flow(pkt.Flow)
		if f != nil {
			if h.Receiver != nil {
				if resp := h.Receiver.OnData(now, pkt); resp != nil {
					h.Send(resp)
				}
			}
			f.onDataArrive(now, pkt)
		}
		h.net.ReleasePacket(pkt)
	case KindAck:
		f := h.net.Flow(pkt.Flow)
		if f != nil {
			f.onAckArrive(now, pkt)
		}
		h.net.ReleasePacket(pkt)
	case KindCNP:
		h.CNPsRx++
		if h.net.Flow(pkt.Flow) == nil {
			h.net.ReleasePacket(pkt)
			return
		}
		// NIC reaction delay before the reaction point processes the CNP.
		h.eng.AfterCall(h.RPDelay, hostCNPReady, h, pkt)
	}
}

// Send transmits a locally generated control packet (ACK, CNP response)
// through the NIC.
func (h *Host) Send(pkt *Packet) {
	h.nic[0].Enqueue(pkt)
}
