package netsim

import "rocc/internal/sim"

// NodeID identifies a node (host or switch) within a Network.
type NodeID int

// FlowID identifies a flow within a Network.
type FlowID int64

// Kind discriminates packet roles.
type Kind uint8

// Packet kinds.
const (
	KindData  Kind = iota // flow payload
	KindAck               // cumulative ACK (possibly NACK) from the receiver
	KindCNP               // congestion notification (RoCC switch CNP or DCQCN receiver CNP)
	KindPause             // PFC pause/resume frame (link-local)
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindCNP:
		return "cnp"
	case KindPause:
		return "pause"
	}
	return "unknown"
}

// Class is a strict-priority traffic class on a port.
type Class uint8

// Priority classes, highest first. Only ClassData is subject to PFC.
const (
	ClassCtrl Class = iota // CNPs and pause-adjacent control
	ClassAck               // ACKs/NACKs
	ClassData              // flow payload (the lossless RDMA class)
	NumClasses
)

// INTRecord is one hop's in-band network telemetry, as HPCC uses.
type INTRecord struct {
	TxBytes uint64   // cumulative bytes transmitted by the egress port
	QLen    int      // egress data-queue length in bytes at departure
	TS      sim.Time // departure timestamp
	Rate    Rate     // egress link bandwidth
}

// CPID identifies a congestion point: an egress port on a switch.
type CPID struct {
	Node NodeID
	Port int
}

// CNPInfo is the payload of a RoCC CNP (§3.3). RateUnits carries the fair
// rate in multiples of ΔF. In host-computed mode (§3.6) the CP instead
// ships its queue observation and the host runs the PI controller.
type CNPInfo struct {
	CP        CPID
	RateUnits int // fair rate, multiples of ΔF (switch-computed mode)

	// Host-computed mode (§3.6): raw queue observations in ΔQ units.
	// QOldUnits is the CP's previous observation, shipped because the
	// host does not see every update interval.
	HostComputed bool
	QCurUnits    int
	QOldUnits    int
}

// Packet is the unit of transmission. Packets are passed by pointer and
// owned by exactly one queue or in-flight event at a time; that owner is
// responsible for handing the packet on (enqueue, deliver) or releasing
// it back to the network pool (Network.ReleasePacket) at exactly one of
// the terminal points: sink consumption, drop, ACK/CNP absorption, or
// pause-frame delivery. Protocol hooks (FlowCC, PortCC, ReceiverHook)
// observe packets but never own them — see the contracts in cc.go.
//
// Every packet is a 96-byte header that each hop reads, followed by two
// pointers to records only some packets use: the congestion payload of a
// RoCC or QCN CNP (CNP, EnsureCNP) and HPCC's INT stacks (INT, EchoINT,
// StampINT, SetEchoINT). A slot allocates each record the first time it
// needs it and keeps it across pool cycles, so a warmed-up run carries
// payloads and telemetry without allocating, while a data packet or a
// payload-less CNP pays only the two pointers. The whole struct is 112
// bytes, one size class of the allocator; the poolcheck stamp makes it
// 120 (TestPacketFootprint).
type Packet struct {
	Flow    FlowID
	Src     NodeID   // originating node
	Dst     NodeID   // destination node
	Size    int      // bytes on the wire, headers included
	Seq     int64    // data: byte offset of the first payload byte
	Payload int      // data: payload bytes carried
	AckSeq  int64    // ACK: cumulative, the receiver expects this byte next
	EchoTS  sim.Time // ACK: echo of the data packet's SendTS (RTT measurement)
	SendTS  sim.Time // when the packet was first put on the wire

	ingress int32 // transient: arrival port at the switch currently buffering it
	hops    int32 // transient: switches traversed, for the loop-drop TTL

	// pool is the index of the shard-local pool that owns this packet
	// (always 0 on one shard). A cross-shard handoff re-stamps it with
	// the receiving shard as it leaves (scheduleArrival), so release
	// always touches the pool of the shard holding the packet.
	pool int32

	Kind    Kind
	Cls     Class
	Last    bool // data: last byte of the flow is included
	Nack    bool // ACK: gap detected; go-back-N rewind requested
	ECT     bool // ECN-capable transport
	CE      bool // congestion experienced (set by marking switches)
	PauseOn bool // PFC pause frame: true = Xoff, false = Xon/resume

	// pooled marks packets acquired from the network pool. Only pooled
	// packets return to the free list on release and count toward
	// Network.OutstandingPackets; hand-built packets (tests, external
	// callers) pass through release unharmed and fall to the GC.
	pooled bool

	// hasCNP marks cnp as this packet's payload. The record outlives the
	// packet in its slot, so without the mark a recycled slot would show
	// a stale payload to DCQCN's payload-less CNPs and to fault injection.
	hasCNP bool

	// pc is the poolcheck lifecycle stamp. Without the poolcheck build
	// tag it is an empty struct and every check compiles to nothing.
	pc pcheck

	// Records retained by the slot across pool cycles; see the type
	// comment. reset keeps both, and ClonePacket gives the clone its own.
	cnp  *CNPInfo
	ints *intStacks
}

// intStacks is a slot's HPCC telemetry: the INT records a data packet
// collects hop by hop, and the copy an ACK echoes back to the sender.
type intStacks struct {
	stamped, echo []INTRecord
}

// EnsureCNP attaches a zeroed congestion payload to the packet and
// returns it for filling. The slot's record is reused, so a warmed-up
// pool carries CNP payloads without allocating.
func (pkt *Packet) EnsureCNP() *CNPInfo {
	if pkt.cnp == nil {
		pkt.cnp = new(CNPInfo)
	} else {
		*pkt.cnp = CNPInfo{}
	}
	pkt.hasCNP = true
	return pkt.cnp
}

// CNP returns the packet's congestion payload, or nil if it carries none
// (every kind but a RoCC or QCN CNP, and DCQCN's CNPs).
func (pkt *Packet) CNP() *CNPInfo {
	if !pkt.hasCNP {
		return nil
	}
	return pkt.cnp
}

// INT returns the telemetry records stamped so far, one per hop (HPCC).
// The slice aliases the packet: it is valid until the packet is released.
func (pkt *Packet) INT() []INTRecord {
	if pkt.ints == nil {
		return nil
	}
	return pkt.ints.stamped
}

// EchoINT returns the INT records an ACK echoes back to the sender
// (HPCC). The slice aliases the packet, as INT's does.
func (pkt *Packet) EchoINT() []INTRecord {
	if pkt.ints == nil {
		return nil
	}
	return pkt.ints.echo
}

// StampINT appends one hop's telemetry record.
func (pkt *Packet) StampINT(rec INTRecord) {
	if pkt.ints == nil {
		pkt.ints = new(intStacks)
	}
	pkt.ints.stamped = append(pkt.ints.stamped, rec)
}

// SetEchoINT replaces the echoed records with a copy of recs; nil clears
// them. The copy lands in the packet's own buffer, so recs may alias a
// packet that is released next.
func (pkt *Packet) SetEchoINT(recs []INTRecord) {
	if pkt.ints == nil {
		if len(recs) == 0 {
			return
		}
		pkt.ints = new(intStacks)
	}
	pkt.ints.echo = append(pkt.ints.echo[:0], recs...)
}

// reset clears a packet for reuse. It zeroes the whole struct and then
// restores what the slot keeps: its records (INT stacks emptied, their
// capacity kept — the point of pooling them), its pool and the poolcheck
// generation stamp. Zeroing first and restoring after, rather than
// assigning a literal built from saved fields, lets the compiler clear
// the struct in place instead of copying a temporary over it.
func (pkt *Packet) reset() {
	cnp, stacks, pc, pool := pkt.cnp, pkt.ints, pkt.pc, pkt.pool
	*pkt = Packet{}
	pkt.cnp, pkt.ints, pkt.pc, pkt.pool, pkt.pooled = cnp, stacks, pc, pool, true
	if stacks != nil {
		stacks.stamped = stacks.stamped[:0]
		stacks.echo = stacks.echo[:0]
	}
}

// dataPacket builds a payload packet for a flow from the network pool.
func dataPacket(f *Flow, seq int64, payload int, last bool, now sim.Time) *Packet {
	pkt := f.net.AcquirePacket(f.src)
	pkt.Flow = f.ID
	pkt.Src = f.src.id
	pkt.Dst = f.dst.id
	pkt.Kind = KindData
	pkt.Cls = ClassData
	pkt.Size = payload + HeaderBytes
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Last = last
	pkt.ECT = true
	pkt.SendTS = now
	return pkt
}
