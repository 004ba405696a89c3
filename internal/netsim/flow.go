package netsim

import (
	"sync/atomic"

	"rocc/internal/sim"
)

// FlowConfig describes a flow to start.
type FlowConfig struct {
	// Size is the message size in bytes. Negative means unbounded (a
	// persistent flow, stopped explicitly with Flow.Stop).
	Size int64

	// MaxRate caps the application's offered rate (the micro-benchmarks
	// offer 90% of link bandwidth per source). Zero means line rate.
	MaxRate Rate

	// CC is the flow's congestion controller. Nil means NoCC.
	CC FlowCC

	// Reliable enables go-back-N loss recovery with per-packet cumulative
	// ACKs (App. A.2); the receiver acknowledges every packet whatever
	// AckEvery says.
	Reliable bool

	// AckEvery makes the receiver acknowledge every N-th data packet (with
	// RTT echo and INT echo), as window- and RTT-based protocols need.
	// Zero disables ACKs unless Reliable is set.
	AckEvery int

	// RTO is the go-back-N retransmission timeout. Zero defaults to 1 ms.
	RTO sim.Time

	// ExtraHeader adds per-packet wire overhead beyond HeaderBytes
	// (HPCC's in-band telemetry bytes).
	ExtraHeader int

	// Scheme is the congestion-control scheme that built CC. A composer
	// running several schemes on one fabric sets it so its switch and
	// receiver demultiplexers can find each packet's scheme through the
	// flow registry; nil for flows started outside a composer.
	Scheme CongestionOps
}

// Flow is a unidirectional message transfer between two hosts, including
// sender scheduling state and receiver assembly state.
type Flow struct {
	ID  FlowID
	net *Network
	src *Host
	dst *Host

	Size        int64
	MaxRate     Rate
	CC          FlowCC
	AckEvery    int
	RTO         sim.Time
	ExtraHeader int
	scheme      CongestionOps

	StartTime sim.Time

	// Sender state.
	nextSeq  int64
	sentHigh int64
	appPacer Pacer
	ackedSeq int64
	gbn      *gbnState // go-back-N sender state; nil unless Reliable

	// Receiver state.
	rcvdContig int64
	acksOwed   int
	FinishTime sim.Time

	Reliable bool
	stopped  bool
	done     bool
}

// gbnState is the go-back-N sender state a Reliable flow adds: its
// retransmission timer and the rewind-storm filter.
type gbnState struct {
	lastRewindSeq  int64
	lastRewindTime sim.Time
	rtoEv          sim.Handle
}

// Src returns the sending host.
func (f *Flow) Src() *Host { return f.src }

// Dst returns the receiving host.
func (f *Flow) Dst() *Host { return f.dst }

// Done reports whether the receiver has the complete message.
func (f *Flow) Done() bool { return f.done }

// DeliveredBytes returns the contiguous bytes delivered to the receiver.
func (f *Flow) DeliveredBytes() int64 { return f.rcvdContig }

// SentBytes returns the highest payload byte handed to the wire.
func (f *Flow) SentBytes() int64 { return f.sentHigh }

// FCT returns the flow completion time, valid once Done.
func (f *Flow) FCT() sim.Time { return f.FinishTime - f.StartTime }

// Scheme returns the congestion-control scheme recorded at start
// (FlowConfig.Scheme), nil when none was.
func (f *Flow) Scheme() CongestionOps { return f.scheme }

// Stop halts an unbounded flow at the sender and tears down its controller.
func (f *Flow) Stop() {
	f.stopped = true
	f.src.mayRemove = true
	if f.gbn != nil {
		f.gbn.rtoEv.Cancel()
	}
	f.net.removeFlowLater(f)
}

// remaining returns the payload size of the next packet to send.
func (f *Flow) remaining() int {
	if f.Size < 0 {
		return MTUPayload
	}
	left := f.Size - f.nextSeq
	if left > MTUPayload {
		return MTUPayload
	}
	return int(left)
}

// senderDone reports whether the sender has nothing (new) left to send.
func (f *Flow) senderDone() bool {
	if f.stopped {
		return true
	}
	return f.Size >= 0 && f.nextSeq >= f.Size
}

// removable reports whether the flow can leave the NIC scheduler.
func (f *Flow) removable() bool {
	if f.stopped {
		return true
	}
	if f.Size < 0 {
		return false
	}
	if f.nextSeq < f.Size {
		return false
	}
	if f.Reliable {
		// Keep the flow schedulable until fully acknowledged so go-back-N
		// rewinds can retransmit.
		return f.ackedSeq >= f.Size
	}
	return true
}

// allow reports when the flow may transmit its next packet, combining the
// application's offered-rate pacer with the congestion controller.
func (f *Flow) allow(now sim.Time) (sim.Time, bool) {
	if f.senderDone() {
		return 0, false
	}
	payload := f.remaining()
	at, ok := f.CC.Allow(now, payload)
	if !ok {
		return 0, false
	}
	if f.MaxRate > 0 {
		if appAt := f.appPacer.Next(now); appAt > at {
			at = appAt
		}
	}
	return at, true
}

// makePacket builds and charges the flow's next data packet.
func (f *Flow) makePacket(now sim.Time) *Packet {
	payload := f.remaining()
	last := f.Size >= 0 && f.nextSeq+int64(payload) >= f.Size
	pkt := dataPacket(f, f.nextSeq, payload, last, now)
	pkt.Size += f.ExtraHeader
	if f.MaxRate > 0 {
		f.appPacer.Consume(now, f.MaxRate, pkt.Size)
	}
	f.CC.OnSent(now, pkt)
	f.nextSeq += int64(payload)
	if f.nextSeq > f.sentHigh {
		f.sentHigh = f.nextSeq
	}
	if last {
		f.src.mayRemove = true
	}
	if f.Reliable {
		f.armRTO(now)
	}
	return pkt
}

func (f *Flow) armRTO(now sim.Time) {
	f.gbn.rtoEv.Cancel()
	// AfterCall with a package-level func: arming the RTO per packet must
	// not allocate a bound-method closure. The timer lives on the sender's
	// engine — RTO state is sender-side.
	f.gbn.rtoEv = f.src.eng.AfterCall(f.RTO, flowRTO, f, nil)
}

// flowRTO is the go-back-N backstop: rewind to the last acknowledged byte.
func flowRTO(a, _ any) {
	f := a.(*Flow)
	f.gbn.rtoEv = sim.Handle{}
	if f.stopped || f.ackedSeq >= f.Size && f.Size >= 0 {
		return
	}
	f.rewind(f.src.eng.Now(), f.ackedSeq)
	f.armRTO(f.src.eng.Now())
	f.src.Kick()
}

// rewind implements the go-back-N retransmission: resume sending from seq.
// Only Reliable flows rewind: only their receivers send NACKs.
func (f *Flow) rewind(now sim.Time, seq int64) {
	if seq >= f.nextSeq {
		return
	}
	g := f.gbn
	// Suppress rewind storms from duplicate NACKs for the same gap.
	if seq == g.lastRewindSeq && now-g.lastRewindTime < 50*sim.Microsecond {
		return
	}
	g.lastRewindSeq = seq
	g.lastRewindTime = now
	// Atomic: flows on different shards rewind concurrently.
	atomic.AddInt64(&f.net.RetxBytesTotal, f.nextSeq-seq)
	f.nextSeq = seq
	if cc, ok := f.CC.(RetxAware); ok {
		cc.OnRewind(now, seq)
	}
}

// onDataArrive runs at the receiving host.
func (f *Flow) onDataArrive(now sim.Time, pkt *Packet) {
	advanced := false
	if f.Reliable {
		switch {
		case pkt.Seq == f.rcvdContig:
			f.rcvdContig += int64(pkt.Payload)
			advanced = true
			f.sendAck(now, pkt, false)
		case pkt.Seq > f.rcvdContig:
			// Gap: go-back-N discards and NACKs the expected sequence.
			f.sendAck(now, pkt, true)
		default:
			// Duplicate of already-delivered data; re-acknowledge.
			f.sendAck(now, pkt, false)
		}
	} else {
		// Lossless single-path fabric delivers in order.
		f.rcvdContig += int64(pkt.Payload)
		advanced = true
		if f.AckEvery > 0 {
			f.acksOwed++
			if f.acksOwed >= f.AckEvery || pkt.Last {
				f.acksOwed = 0
				f.sendAck(now, pkt, false)
			}
		}
	}
	if advanced && !f.done && f.Size >= 0 && f.rcvdContig >= f.Size {
		f.done = true
		f.FinishTime = now
		// Completion callbacks mutate the flow registry and may start new
		// flows or stop the run — global-lane work. Defer to the window
		// barrier; the coordinator replays the list in (FinishTime, dst,
		// flow) order, which is partition-independent.
		st := &f.net.shardSt[f.dst.shard]
		st.done = append(st.done, f)
	}
}

// sendAck emits a cumulative ACK (or NACK) with RTT and INT echoes. The
// INT records are copied into the ACK's own (capacity-recycled) buffer:
// aliasing the data packet's slice would dangle once the data packet
// returns to the pool.
func (f *Flow) sendAck(now sim.Time, data *Packet, nack bool) {
	ack := f.net.AcquirePacket(f.dst)
	ack.Flow = f.ID
	ack.Src = f.dst.id
	ack.Dst = f.src.id
	ack.Kind = KindAck
	ack.Cls = ClassAck
	ack.Size = AckBytes
	ack.AckSeq = f.rcvdContig
	ack.Nack = nack
	ack.EchoTS = data.SendTS
	ack.SetEchoINT(data.INT())
	ack.SendTS = now
	f.dst.Send(ack)
}

// onAckArrive runs at the sending host.
func (f *Flow) onAckArrive(now sim.Time, pkt *Packet) {
	if pkt.AckSeq > f.ackedSeq {
		f.ackedSeq = pkt.AckSeq
		if f.Reliable {
			if f.Size >= 0 && f.ackedSeq >= f.Size {
				f.gbn.rtoEv.Cancel()
				f.src.mayRemove = true
				// Registry mutation and controller teardown defer to the
				// window barrier (see onDataArrive).
				st := &f.net.shardSt[f.src.shard]
				st.retire = append(st.retire, retireReq{f: f, at: now})
			} else {
				f.armRTO(now)
			}
		}
	}
	if pkt.Nack {
		f.rewind(now, pkt.AckSeq)
	}
	f.CC.OnAck(now, pkt)
	f.src.Kick()
}
