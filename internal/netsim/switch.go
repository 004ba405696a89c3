package netsim

import "rocc/internal/sim"

// BufferConfig describes the shared packet buffer of a switch and its PFC
// behaviour. The paper's defaults (per §6): 500 KB PFC threshold for
// 40 Gb/s fabrics and 800 KB for 100 Gb/s.
type BufferConfig struct {
	// TotalBytes caps data-class buffering across all egress queues.
	// Zero means unlimited (no drops), the paper's lossless default.
	TotalBytes int

	// PFCEnabled turns on per-ingress pause generation.
	PFCEnabled bool

	// PFCThreshold is the per-ingress Xoff watermark in bytes.
	PFCThreshold int

	// PFCResume is the Xon watermark. Zero defaults to PFCThreshold - 20 KB
	// (floored at half the threshold).
	PFCResume int
}

// SharedFactor scales the shared-buffer Xoff trigger: when total
// data-class occupancy exceeds SharedFactor × PFCThreshold, every
// contributing ingress is paused (shared-buffer pressure). Per-ingress
// accounting still pauses an individual ingress at PFCThreshold.
const SharedFactor = 2

func (b BufferConfig) sharedXoff() int { return SharedFactor * b.PFCThreshold }

func (b BufferConfig) sharedXon() int {
	return b.sharedXoff() - (b.PFCThreshold - b.resume())
}

func (b BufferConfig) resume() int {
	if b.PFCResume > 0 {
		return b.PFCResume
	}
	r := b.PFCThreshold - 20*KB
	if min := b.PFCThreshold / 2; r < min {
		r = min
	}
	return r
}

// Switch is a shared-buffer output-queued switch with ECMP routing, an
// 802.1Qbb PFC model, and per-port congestion-control attachments.
type Switch struct {
	net    *Network
	id     NodeID
	Name   string
	ports  []*Port
	Buffer BufferConfig

	// route[dst] indexes routeSets, the switch's distinct equal-cost
	// egress port sets: every destination reached over the same next hops
	// shares one set. Set 0 is empty and so is "no route"; an empty route
	// (a switch before ComputeRoutes, or a failed one) routes nothing.
	route     []int32
	routeSets [][]int32

	bufferUsed    int
	ingressUsage  []int
	pausedIngress []bool
	sharedOver    bool // shared-buffer occupancy above the PFC threshold

	// InjectGate, when set, vetoes locally generated packets (RoCC CNPs)
	// before they enter the egress pipeline: the fault layer uses it for
	// CP stall windows and probabilistic feedback loss. Nil admits all.
	InjectGate func(pkt *Packet) bool

	// Police, when set, adjudicates every data packet after egress
	// resolution but before any buffer accounting: returning false makes
	// this the packet's terminal point (a policed drop, counted
	// separately from tail drops). The adversary compliance policer uses
	// it for per-flow byte metering and quarantine enforcement. Nil — the
	// default — leaves the admission path untouched.
	Police func(now sim.Time, pkt *Packet, inPort int, egress *Port) bool

	// failed marks a switch killed by FailSwitch: its table is cleared and
	// ComputeRoutes skips it until RestoreSwitch (see topofail.go).
	failed bool

	// eng is the shard engine this switch's events run on (shard 0 until
	// EnableSharding re-homes the switch).
	eng   *sim.Engine
	shard int

	// Counters.
	PauseFrames   int // Xoff frames sent (the paper's "PFC activations")
	ResumeFrames  int
	Drops         int
	MaxBufferUsed int

	// BlackholeDrops counts packets with no surviving route (topology
	// failure windows); LoopDrops counts packets that exceeded the hop cap.
	BlackholeDrops uint64
	LoopDrops      uint64

	// PolicedDrops counts data packets denied by the Police hook;
	// WatchdogDrops counts data packets discarded because their egress
	// port's lossless class was disabled by a PFC storm watchdog
	// (including stuck-queue flushes). Both are deliberate defensive
	// drops, kept separate from Drops so lossless-mode invariants still
	// hold when defenses fire.
	PolicedDrops  int
	WatchdogDrops int
}

// ID returns the switch's node id.
func (s *Switch) ID() NodeID { return s.id }

// Ports returns the switch's ports.
func (s *Switch) Ports() []*Port { return s.ports }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// PortTo returns the first port whose link peer is the given node, or nil.
func (s *Switch) PortTo(peer Node) *Port {
	for _, p := range s.ports {
		if p.PeerNode == peer {
			return p
		}
	}
	return nil
}

// BufferUsed returns the current data-class buffer occupancy in bytes.
func (s *Switch) BufferUsed() int { return s.bufferUsed }

func (s *Switch) addPort(p *Port) {
	p.Index = len(s.ports)
	p.OnDequeue = s.onDataDequeue
	s.ports = append(s.ports, p)
	s.ingressUsage = append(s.ingressUsage, 0)
	s.pausedIngress = append(s.pausedIngress, false)
}

// Arrive implements Node. Pause frames are absorbed (and released) here;
// everything else is handed on to an egress queue, except tail drops,
// blackhole drops and loop drops, which are the packet's terminal point.
func (s *Switch) Arrive(pkt *Packet, inPort int) {
	pkt.checkLive("switch arrive")
	if pkt.Kind == KindPause {
		if !s.ports[inPort].acceptPause(pkt) {
			s.net.ReleasePacket(pkt)
			return
		}
		s.ports[inPort].SetPaused(pkt.PauseOn)
		s.net.ReleasePacket(pkt)
		return
	}
	pkt.hops++
	if int(pkt.hops) > s.net.maxHops() {
		s.LoopDrops++
		s.net.recordDrop(s, pkt, "route", "loop_drop")
		s.net.ReleasePacket(pkt)
		return
	}
	egress := s.egressFor(pkt)
	if egress == nil {
		if s.net.routesDynamic {
			// A topology event removed every route for this destination:
			// the packet falls into the blackhole window and is released
			// here, before any buffer accounting.
			s.BlackholeDrops++
			s.net.recordDrop(s, pkt, "route", "blackhole")
			s.net.ReleasePacket(pkt)
			return
		}
		panic("netsim: switch " + s.Name + " has no route for packet destination")
	}
	if pkt.Kind != KindData {
		// Control and ACK classes are small and exempt from buffer and
		// PFC accounting; they ride the high-priority queues.
		egress.Enqueue(pkt)
		return
	}
	if egress.losslessOff {
		// A storm watchdog disabled the lossless class on this egress:
		// data headed into the wedged downstream is dropped instead of
		// parked behind a pause that will never lift.
		s.WatchdogDrops++
		s.net.recordDrop(s, pkt, "adversary", "watchdog_drop")
		s.net.ReleasePacket(pkt)
		return
	}
	if s.Police != nil && !s.Police(s.eng.Now(), pkt, inPort, egress) {
		s.PolicedDrops++
		s.net.recordDrop(s, pkt, "adversary", "policed_drop")
		s.net.ReleasePacket(pkt)
		return
	}
	if s.Buffer.TotalBytes > 0 && s.bufferUsed+pkt.Size > s.Buffer.TotalBytes {
		s.Drops++
		s.net.recordDrop(s, pkt, "netsim", "drop")
		s.net.ReleasePacket(pkt)
		return
	}
	s.bufferUsed += pkt.Size
	if s.bufferUsed > s.MaxBufferUsed {
		s.MaxBufferUsed = s.bufferUsed
	}
	pkt.ingress = int32(inPort)
	s.ingressUsage[inPort] += pkt.Size
	if s.Buffer.PFCEnabled {
		// 802.1Qbb pauses an upstream sender when the buffer it is
		// responsible for crosses Xoff. We model both triggers real
		// switches use: per-ingress accounting, and shared-buffer
		// pressure (which pauses every contributing ingress).
		if !s.sharedOver && s.bufferUsed >= s.Buffer.sharedXoff() {
			s.sharedOver = true
		}
		if !s.pausedIngress[inPort] &&
			(s.sharedOver || s.ingressUsage[inPort] >= s.Buffer.PFCThreshold) {
			s.pausedIngress[inPort] = true
			s.PauseFrames++
			s.ports[inPort].sendPauseFrame(true)
		}
	}
	if egress.CC != nil {
		egress.CC.OnEnqueue(s.eng.Now(), pkt, egress.QueueBytes(ClassData)+pkt.Size)
	}
	egress.Enqueue(pkt)
}

// onDataDequeue releases buffer and PFC accounting when a data packet
// starts transmission on any egress port.
func (s *Switch) onDataDequeue(pkt *Packet, qlen int) {
	s.bufferUsed -= pkt.Size
	in := int(pkt.ingress)
	s.ingressUsage[in] -= pkt.Size
	if !s.Buffer.PFCEnabled {
		return
	}
	if s.sharedOver && s.bufferUsed <= s.Buffer.sharedXon() {
		// Shared pressure released: resume every ingress that is also
		// individually below its watermark.
		s.sharedOver = false
		for i := range s.pausedIngress {
			if s.pausedIngress[i] && s.ingressUsage[i] <= s.Buffer.resume() {
				s.resume(i)
			}
		}
		return
	}
	if s.pausedIngress[in] && !s.sharedOver && s.ingressUsage[in] <= s.Buffer.resume() {
		s.resume(in)
	}
}

func (s *Switch) resume(in int) {
	s.pausedIngress[in] = false
	s.ResumeFrames++
	s.ports[in].sendPauseFrame(false)
}

// FlushPortData discards every packet parked in one egress port's data
// queue, running the normal dequeue accounting (buffer occupancy, PFC
// resume) for each so upstream pause state unwinds exactly as if the
// packets had been transmitted. The PFC storm watchdog calls it when it
// disables the lossless class on a port: the stuck queue is the storm's
// hostage, and dropping it is the deployed mitigation. Returns the
// bytes flushed.
func (s *Switch) FlushPortData(p *Port) (bytes int) {
	for p.queues[ClassData].Len() > 0 {
		pkt := p.queues[ClassData].Pop()
		p.queueBytes[ClassData] -= pkt.Size
		bytes += pkt.Size
		s.onDataDequeue(pkt, p.queueBytes[ClassData])
		s.WatchdogDrops++
		s.net.recordDrop(s, pkt, "adversary", "watchdog_drop")
		s.net.ReleasePacket(pkt)
	}
	return bytes
}

// egressFor picks the egress port for a packet, hashing flows across
// equal-cost paths (ECMP).
func (s *Switch) egressFor(pkt *Packet) *Port {
	choices := s.routeTo(pkt.Dst)
	switch len(choices) {
	case 0:
		return nil
	case 1:
		return s.ports[choices[0]]
	}
	h := ecmpHash(uint64(pkt.Flow), uint64(s.id))
	return s.ports[choices[h%uint64(len(choices))]]
}

// routeTo returns the equal-cost egress port indices toward dst, in port
// order; empty when the switch has no route there.
func (s *Switch) routeTo(dst NodeID) []int32 {
	if uint(dst) >= uint(len(s.route)) {
		return nil
	}
	return s.routeSets[s.route[dst]]
}

// resetPFC clears the sent-Xoff record for one ingress after its link
// re-established (the peer's pause state did not survive the flap). If
// the ingress is still over its watermark the next data arrival re-sends
// Xoff through the normal path.
func (s *Switch) resetPFC(portIndex int) {
	s.pausedIngress[portIndex] = false
}

// Inject routes a locally generated packet (a RoCC CNP) out of the switch.
// A gate veto is the packet's terminal point.
func (s *Switch) Inject(pkt *Packet) {
	if s.InjectGate != nil && !s.InjectGate(pkt) {
		s.net.ReleasePacket(pkt)
		return
	}
	egress := s.egressFor(pkt)
	if egress == nil {
		if s.net.routesDynamic {
			s.BlackholeDrops++
			s.net.recordDrop(s, pkt, "route", "blackhole")
			s.net.ReleasePacket(pkt)
			return
		}
		panic("netsim: switch " + s.Name + " has no route for injected packet")
	}
	egress.Enqueue(pkt)
}

// ecmpHash mixes a flow id and switch id into a uniform 64-bit value
// (splitmix64 finalizer), so a flow hashes independently at each hop.
func ecmpHash(flow, sw uint64) uint64 {
	x := flow*0x9e3779b97f4a7c15 + sw
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
