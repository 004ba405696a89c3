package netsim

import (
	"sync/atomic"

	"rocc/internal/ringq"
	"rocc/internal/sim"
)

// Port is one end of a link. It owns per-class strict-priority queues and
// serializes packets at the link rate. The data class can be paused by PFC.
type Port struct {
	net   *Network
	owner Node
	Index int // port index at the owner

	PeerNode Node
	PeerPort int

	LinkRate  Rate
	PropDelay sim.Time

	queues     [NumClasses]ringq.Queue[*Packet]
	queueBytes [NumClasses]int
	busy       bool
	paused     bool // PFC pause applies to ClassData only

	// Refill, if set, is asked for a data packet when the port would
	// otherwise go idle (host pull model). Switches leave it nil.
	Refill func() *Packet

	// OnDequeue, if set, runs when a data packet leaves the queue and
	// starts transmission (switch egress pipeline hook).
	OnDequeue func(pkt *Packet, qlen int)

	// CC is the switch-side congestion-control attachment, if any.
	CC PortCC

	// Fault, when set, adjudicates every packet leaving this port
	// (drop/duplicate/delay/corrupt — see internal/faults). Nil means a
	// perfect link.
	Fault FaultHook

	linkDown bool     // packets transmitted while down are lost
	upSince  sim.Time // when the link last (re-)established at this end

	// Engine-group wiring (see shard.go). eng is the shard engine this
	// port's events run on — its owner's, shard 0 until EnableSharding
	// re-homes the owner. arrLane keys this directed link's
	// arrival lane (creation-order port id), linkSeq sequences arrivals
	// within it, and peerShard/peerCtx cache the far end's shard and
	// local lane.
	eng       *sim.Engine
	shard     int
	peerShard int
	peerCtx   uint64
	arrLane   uint64
	linkSeq   uint64

	// losslessOff marks the data class as storm-disabled by a PFC
	// watchdog: incoming pause frames are ignored (and counted) and the
	// owning switch drops data routed to this egress, until the
	// watchdog's cooldown re-enables the class. See internal/adversary.
	losslessOff bool

	// Counters.
	TxBytes       uint64 // all classes
	TxDataBytes   uint64
	TxPackets     uint64
	ECNMarks      uint64 // CE-marked data packets sent, at every hop after the mark
	LinkDownDrops uint64 // packets lost to a downed link
	pausedAt      sim.Time
}

// CurrentPauseSpan returns how long the in-progress PFC pause has been
// asserted, or zero when the port is not paused. This is the signal a
// storm watchdog compares against its deadline.
func (p *Port) CurrentPauseSpan() sim.Time {
	if !p.paused {
		return 0
	}
	return p.eng.Now() - p.pausedAt
}

// LosslessOff reports whether a storm watchdog has disabled the
// lossless (data) class on this port.
func (p *Port) LosslessOff() bool { return p.losslessOff }

// SetLosslessOff disables or re-enables the lossless class. Disabling
// releases any pause in progress (ending its span) so the port drains;
// while disabled, acceptPause discards incoming PFC frames and the
// owning switch drops data routed here. Re-enabling restores normal
// 802.1Qbb behaviour from the next pause frame onward.
func (p *Port) SetLosslessOff(off bool) {
	if p.losslessOff == off {
		return
	}
	p.losslessOff = off
	if off && p.paused {
		p.SetPaused(false)
	}
}

// Owner returns the node the port belongs to.
func (p *Port) Owner() Node { return p.owner }

// Engine returns the shard engine this port's events run on (its
// owner's). Switch-side congestion-control attachments must schedule
// their timers here, not on the network's global lane.
func (p *Port) Engine() *sim.Engine { return p.eng }

// QueueBytes returns the queued bytes of one class (excluding the packet
// currently being serialized).
func (p *Port) QueueBytes(c Class) int { return p.queueBytes[c] }

// DataQueueBytes returns the data-class backlog in bytes. This is the
// quantity the RoCC congestion point reads as Qcur.
func (p *Port) DataQueueBytes() int { return p.queueBytes[ClassData] }

// Paused reports whether the data class is PFC-paused.
func (p *Port) Paused() bool { return p.paused }

// LinkDown reports whether the link is administratively down at this end.
func (p *Port) LinkDown() bool { return p.linkDown }

// SetLinkDown takes this end of the link down or brings it back up. While
// down, everything the port transmits (including PFC frames) is lost.
// Bringing the link up models an 802.1Qbb re-establishment: pause state
// is link-local, so the received-pause flag and the owner's sent-Xoff
// bookkeeping are cleared — a pause deadline must not survive a flap.
// The fault layer flaps both ends of a link together (see faults.Flap).
func (p *Port) SetLinkDown(down bool) {
	if p.linkDown == down {
		return
	}
	p.linkDown = down
	if down {
		// Pause state dies with the link: the span ends here, so a long
		// outage reads as an outage (LinkDownDrops), not a pause storm.
		if p.paused {
			p.SetPaused(false)
		}
		return
	}
	p.upSince = p.eng.Now()
	if p.paused {
		p.SetPaused(false)
	}
	if r, ok := p.owner.(pfcResetter); ok {
		r.resetPFC(p.Index)
	}
	p.kick()
}

// QueuedPackets returns the number of packets parked across all class
// queues (excluding the packet currently serializing). The pool
// accounting invariant uses it: after the engine drains, every
// outstanding pooled packet must be parked in some queue.
func (p *Port) QueuedPackets() int {
	total := 0
	for c := range p.queues {
		total += p.queues[c].Len()
	}
	return total
}

// Enqueue appends a packet to its class queue and starts transmission if
// the port is idle. The queue takes ownership of the packet.
func (p *Port) Enqueue(pkt *Packet) {
	pkt.checkLive("port enqueue")
	c := pkt.Cls
	p.queues[c].Push(pkt)
	p.queueBytes[c] += pkt.Size
	if c == ClassData {
		p.net.recordQueueDepth(p)
	}
	p.kick()
}

// SetPaused applies or releases a PFC pause on the data class.
func (p *Port) SetPaused(on bool) {
	if p.paused == on {
		return
	}
	p.paused = on
	now := p.eng.Now()
	if on {
		p.pausedAt = now
	} else {
		p.net.recordPauseSpan(p, p.pausedAt, now)
		p.kick()
	}
}

// nextPacket pops the highest-priority transmittable packet, consulting the
// Refill hook when the data queue is empty.
func (p *Port) nextPacket() *Packet {
	for c := ClassCtrl; c < NumClasses; c++ {
		if c == ClassData && p.paused {
			continue
		}
		if p.queues[c].Len() > 0 {
			pkt := p.queues[c].Pop()
			p.queueBytes[c] -= pkt.Size
			return pkt
		}
		if c == ClassData && p.Refill != nil {
			if pkt := p.Refill(); pkt != nil {
				return pkt
			}
		}
	}
	return nil
}

// kick starts transmission if the port is idle and work is available.
func (p *Port) kick() {
	if p.busy {
		return
	}
	pkt := p.nextPacket()
	if pkt == nil {
		return
	}
	p.busy = true
	now := p.eng.Now()
	if pkt.Kind == KindData {
		if p.OnDequeue != nil {
			p.OnDequeue(pkt, p.queueBytes[ClassData])
		}
		if p.CC != nil {
			p.CC.OnDequeue(now, pkt, p.queueBytes[ClassData])
		}
	}
	txTime := p.LinkRate.TxTime(pkt.Size)
	p.eng.AfterCall(txTime, portTxDone, p, pkt)
}

// portTxDone fires when a packet finishes serializing: counters, hand-off
// to the wire, and the next transmission. Scheduled via AfterCall so the
// per-packet tx event reuses pooled slots instead of allocating a closure.
func portTxDone(a, b any) {
	p := a.(*Port)
	pkt := b.(*Packet)
	p.busy = false
	p.TxBytes += uint64(pkt.Size)
	p.TxPackets++
	if pkt.Kind == KindData {
		p.TxDataBytes += uint64(pkt.Size)
		if pkt.CE {
			p.ECNMarks++
		}
	}
	p.deliver(pkt, p.PropDelay)
	p.kick()
}

// deliver puts a serialized packet on the wire toward the link peer: it
// consults the link state and the fault hook, then schedules the arrival
// after delay. With the link up and no hook attached this schedules
// exactly one event, identical to a direct delivery.
func (p *Port) deliver(pkt *Packet, delay sim.Time) {
	if p.linkDown {
		p.LinkDownDrops++
		p.net.ReleasePacket(pkt)
		return
	}
	if p.Fault != nil {
		v := p.Fault.OnTransmit(p.eng.Now(), pkt)
		if v.Drop {
			// The link lost the packet: this is its terminal point.
			p.net.ReleasePacket(pkt)
			return
		}
		delay += v.ExtraDelay
		if v.Duplicate {
			// Clone before the original leaves: a cross-shard handoff
			// moves it to the peer's pool, which this shard must not
			// touch. Schedule the original first so it keeps arriving
			// ahead of its duplicate (same timestamp, earlier sequence
			// number).
			dup := p.net.ClonePacket(pkt)
			p.scheduleArrival(delay, pkt)
			p.scheduleArrival(delay, dup)
			return
		}
	}
	p.scheduleArrival(delay, pkt)
}

// portArrive lands a packet at the link peer after propagation. Peer
// wiring is read at fire time — ports never re-peer after Connect — so
// the event carries only the transmitting port and the packet.
func portArrive(a, b any) {
	p := a.(*Port)
	p.PeerNode.Arrive(b.(*Packet), p.PeerPort)
}

// sendPauseFrame delivers a PFC pause/resume to the link peer out of band
// (PFC frames preempt data in real hardware; we model them as a fixed
// serialization plus propagation delay that does not occupy the queue).
// Pause frames traverse deliver like everything else, so a downed or
// faulty link can lose them — the peer then stays paused (or unpaused)
// until the link-up reset clears the state.
func (p *Port) sendPauseFrame(on bool) {
	pkt := p.net.AcquirePacket(p.owner)
	pkt.Kind = KindPause
	pkt.Cls = ClassCtrl
	pkt.Size = PauseBytes
	pkt.PauseOn = on
	pkt.SendTS = p.eng.Now()
	p.deliver(pkt, p.LinkRate.TxTime(PauseBytes)+p.PropDelay)
}

// acceptPause decides whether an arriving PFC frame may change this
// port's pause state. Pause state is link-local and does not survive a
// flap (SetLinkDown already resets it at link-up), so a frame serialized
// before the link's last re-establishment is stale: honoring a pre-flap
// Xoff after the reset would re-pause the port with no matching resume
// on record upstream — a permanent deadlock. The same applies while the
// link is down: the physical layer that would carry the frame is gone.
func (p *Port) acceptPause(pkt *Packet) bool {
	if p.losslessOff {
		// A storm watchdog disabled the lossless class here: the storm's
		// pause frames are ignored until the cooldown re-enables it.
		// Atomic: ports on different shards bump this concurrently.
		atomic.AddUint64(&p.net.watchdogPauseIgnores, 1)
		return false
	}
	if p.linkDown || pkt.SendTS < p.upSince {
		atomic.AddUint64(&p.net.stalePauseDrops, 1)
		return false
	}
	return true
}
