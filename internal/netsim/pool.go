package netsim

// packetPool is one shard's free list of Packet structs. The network
// owns one per engine shard (Network.pools) and each is touched only
// from its own shard's event context — or on the coordinator with every
// shard quiesced — so the pools need no locking. A slot keeps its CNP and
// INT records across cycles, so a warmed-up simulation sends, stamps and
// acknowledges without touching the allocator. The records move with
// their slot when rebalancePools moves it, so they need no free list of
// their own.
//
// The lifecycle contract the pool enforces (and poolcheck polices):
//
//	AcquirePacket → enqueue/deliver hand-offs → exactly one release at a
//	terminal point (sink consumption, drop, ACK/CNP absorption, pause
//	delivery).
//
// Releasing a packet that did not come from the pool is a safe no-op on
// the free list: the packet simply falls to the GC. That keeps hand-built
// packets (tests, external drivers) working without registration.
type packetPool struct {
	free []*Packet

	acquired  uint64 // AcquirePacket calls on this shard
	released  uint64 // ReleasePacket calls on pooled packets on this shard
	allocated uint64 // fresh Packet structs ever created by the pool
}

// AcquirePacket returns a zeroed packet owned by the caller, drawn from
// the pool of the shard node lives on. Protocol elements that inject
// packets (CNP generators, receiver hooks, the NIC itself) must use this
// instead of &Packet{} so the hot path stays allocation-free, and must
// name the node whose event context they run in so the free list stays
// shard-local; the network releases the packet at its terminal point.
func (n *Network) AcquirePacket(node Node) *Packet {
	return n.acquireFrom(int32(nodeShard(node)))
}

// acquireFrom pops a packet from one shard-local pool.
func (n *Network) acquireFrom(idx int32) *Packet {
	p := &n.pools[idx]
	p.acquired++
	var pkt *Packet
	if m := len(p.free); m > 0 {
		pkt = p.free[m-1]
		p.free[m-1] = nil
		p.free = p.free[:m-1]
	} else {
		p.allocated++
		pkt = &Packet{pooled: true, pool: idx}
		n.preallocINT(pkt)
	}
	pkt.stampAcquire()
	return pkt
}

// preallocINT gives a fresh packet its INT record with hop capacity
// reserved, so the first INT stamping pass never reallocates (HPCC grows
// one record per hop; without this every new packet pays log2(hops)
// grows before its buffers reach steady state). Both stacks share one
// backing array, each capped at its own half.
func (n *Network) preallocINT(pkt *Packet) {
	if c := n.INTHopCap; c > 0 {
		buf := make([]INTRecord, 2*c)
		pkt.ints = &intStacks{stamped: buf[:0:c], echo: buf[c : c : 2*c]}
	}
}

// ReleasePacket returns a packet to the pool at its terminal lifecycle
// point. Nil-safe. Packets not acquired from the pool are ignored (GC
// reclaims them); pooled packets must not be touched after release —
// build with -tags poolcheck to panic on use-after-release and
// double-release instead of corrupting a later packet.
func (n *Network) ReleasePacket(pkt *Packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	pkt.stampRelease()
	// The packet returns to the free list of the shard that holds it:
	// a cross-shard handoff re-stamped pkt.pool with the receiving shard
	// (scheduleArrival), so release always lands on the caller's own
	// (data-race-free) pool.
	p := &n.pools[pkt.pool]
	p.released++
	pkt.reset()
	p.free = append(p.free, pkt)
}

// ClonePacket copies a packet for duplicate delivery through the pool:
// the clone owns its own CNP and INT records, so both copies can be
// mutated and released independently.
func (n *Network) ClonePacket(pkt *Packet) *Packet {
	// The clone joins the original's pool, which is the caller's shard
	// only until the original crosses a shard (scheduleArrival re-stamps
	// it): clone before handing the original on. A clone of an unpooled
	// packet stays unpooled.
	var c *Packet
	if pkt.pooled {
		c = n.acquireFrom(pkt.pool)
	} else {
		c = &Packet{}
		n.preallocINT(c)
	}
	cnp, stacks, pooled, pc, pool := c.cnp, c.ints, c.pooled, c.pc, c.pool
	*c = *pkt
	c.cnp, c.ints, c.pooled, c.pc, c.pool = cnp, stacks, pooled, pc, pool
	if info := pkt.CNP(); info != nil {
		*c.EnsureCNP() = *info
	}
	for _, rec := range pkt.INT() {
		c.StampINT(rec)
	}
	c.SetEchoINT(pkt.EchoINT())
	return c
}

// rebalancePools runs at the window barrier, with every shard quiesced.
// Traffic that crosses shards one way drains one pool and fills another:
// a packet acquired by a sender on one shard is released, and freed, on
// the receiver's, so without a return path the sending shard allocates
// every packet fresh while the free list behind it only grows. A pool
// holding less than half the largest pool's free packets is topped up
// to the mean of the two. Moved packets are free, so acquired and
// released keep their meaning; only their pool stamp changes.
func (n *Network) rebalancePools() {
	if len(n.pools) < 2 {
		return
	}
	for i := range n.pools {
		dst := &n.pools[i]
		src := dst
		for j := range n.pools {
			if len(n.pools[j].free) > len(src.free) {
				src = &n.pools[j]
			}
		}
		if 2*len(dst.free) >= len(src.free) {
			continue
		}
		m := len(src.free)
		k := (m - len(dst.free)) / 2
		moved := src.free[m-k:]
		for _, pkt := range moved {
			pkt.pool = int32(i)
		}
		dst.free = append(dst.free, moved...)
		clear(moved)
		src.free = src.free[:m-k]
	}
}

// OutstandingPackets returns the number of pooled packets currently owned
// outside the pool: queued on a port, in flight on a link, or parked in
// a delayed-delivery event. After a full drain (engine queue empty, all
// port queues empty) this must be zero — the chaos packet-accounting
// invariant — and it can only go negative through a double release.
// It sums each pool's acquired − released; one pool's share alone may
// be negative, since packets acquired on one shard are released on
// another. Read it between windows.
func (n *Network) OutstandingPackets() int64 {
	total := int64(0)
	for i := range n.pools {
		total += int64(n.pools[i].acquired) - int64(n.pools[i].released)
	}
	return total
}

// PacketsAcquired returns the lifetime count of pool acquisitions.
func (n *Network) PacketsAcquired() uint64 {
	total := uint64(0)
	for i := range n.pools {
		total += n.pools[i].acquired
	}
	return total
}

// PacketSlots returns how many Packet structs the pool ever allocated.
// In an allocation-free steady state this stops growing: it tracks the
// peak number of simultaneously live packets, not the number sent.
func (n *Network) PacketSlots() uint64 {
	total := uint64(0)
	for i := range n.pools {
		total += n.pools[i].allocated
	}
	return total
}

// QueuedPackets counts packets sitting in port queues across the whole
// network (all nodes, all classes). Together with OutstandingPackets it
// closes the accounting loop: after the engine drains, every outstanding
// packet must be parked in some queue (normally zero of both).
func (n *Network) QueuedPackets() int {
	total := 0
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			total += p.QueuedPackets()
		}
	}
	return total
}
