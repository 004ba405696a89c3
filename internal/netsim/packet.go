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
type Packet struct {
	Flow FlowID
	Src  NodeID // originating node
	Dst  NodeID // destination node
	Kind Kind
	Cls  Class
	Size int // bytes on the wire, headers included

	// Data packets.
	Seq     int64 // byte offset of the first payload byte
	Payload int   // payload bytes carried
	Last    bool  // last byte of the flow is included

	// ACK packets.
	AckSeq  int64       // cumulative: receiver expects this byte next
	Nack    bool        // gap detected; go-back-N rewind requested
	EchoTS  sim.Time    // echo of the data packet's SendTS (RTT measurement)
	EchoINT []INTRecord // INT records echoed back to the sender (HPCC)

	// ECN.
	ECT bool // ECN-capable transport
	CE  bool // congestion experienced (set by marking switches)

	// In-band telemetry collected hop by hop (HPCC).
	INT []INTRecord

	// RoCC / DCQCN congestion notification payload.
	CNP *CNPInfo

	// PFC pause frames.
	PauseOn bool // true = Xoff, false = Xon/resume

	SendTS sim.Time // when the packet was first put on the wire

	ingress int // transient: arrival port at the switch currently buffering it
	hops    int // transient: switches traversed, for the loop-drop TTL

	// cnpStore is the pool-cycle-stable backing for CNP: pooled packets
	// point CNP at their own embedded record (see EnsureCNP) so carrying
	// a congestion payload costs no allocation.
	cnpStore CNPInfo

	// pooled marks packets acquired from the network pool. Only pooled
	// packets return to the free list on release and count toward
	// Network.OutstandingPackets; hand-built packets (tests, external
	// callers) pass through release unharmed and fall to the GC.
	pooled bool

	// pc is the poolcheck lifecycle stamp. Without the poolcheck build
	// tag it is an empty struct and every check compiles to nothing.
	pc pcheck

	// pool is the index of the shard-local pool that owns this packet
	// (always 0 on one shard). A cross-shard handoff re-stamps it with
	// the receiving shard as it leaves (scheduleArrival), so release
	// always touches the pool of the shard holding the packet.
	pool int32
}

// EnsureCNP attaches a zeroed congestion payload to the packet, stored
// inline so pooled CNPs allocate nothing, and returns it for filling.
func (pkt *Packet) EnsureCNP() *CNPInfo {
	pkt.cnpStore = CNPInfo{}
	pkt.CNP = &pkt.cnpStore
	return pkt.CNP
}

// reset clears a packet for reuse, preserving the INT/EchoINT backing
// arrays (capacity survives pool cycles — the point of pooling them) and
// the poolcheck generation stamp.
func (pkt *Packet) reset() {
	intBuf := pkt.INT[:0]
	echoBuf := pkt.EchoINT[:0]
	pc := pkt.pc
	*pkt = Packet{INT: intBuf, EchoINT: echoBuf, pooled: true, pc: pc, pool: pkt.pool}
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
