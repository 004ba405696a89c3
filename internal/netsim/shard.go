package netsim

import (
	"cmp"
	"slices"

	"rocc/internal/sim"
)

// This file is the dataplane's side of the engine group (sim.Group)
// every network runs on: node→shard assignment, per-shard packet pools
// whose packets change pool on a cross-shard handoff, and the deferred
// flow-completion machinery that keeps flow-registry mutation and user
// callbacks on the global lane.
//
// Lane encoding for the (at, k1, seq) event keys — see sim.event.k1:
//
//	0                 global/setup lane: events scheduled by global-lane
//	                  code (workload arrivals, monitors, tickers created
//	                  at setup) and their descendants. Sorts first.
//	1<<62 | nodeID    a node's local lane: everything a node does in
//	                  reaction to a packet arrival.
//	2<<62 | portID    a directed link's arrival lane, sequenced by the
//	                  transmitting port's own counter.
//
// All three are derived from topology identity, never from shard
// assignment, so same-timestamp ordering — and therefore the whole run —
// is byte-identical for every shard count.
const (
	laneLocalBase = uint64(1) << 62
	laneArrBase   = uint64(2) << 62
)

func localLane(id NodeID) uint64 { return laneLocalBase | uint64(id) }

// shardState is per-shard deferred work, appended single-writer during a
// window and drained by the coordinator at the barrier.
type shardState struct {
	done   []*Flow     // flows whose last byte arrived this window
	retire []retireReq // reliable flows fully acknowledged this window
}

type retireReq struct {
	f  *Flow
	at sim.Time
}

// DefaultLookahead is the window of the one-shard group a network is
// born on: the paper's per-link propagation delay (§6), which is also
// what every cut of the paper's fabrics reports. The window sets the
// barrier cadence, barriers decide when deferred flow completions
// replay, and so the value is part of every run's digest.
const DefaultLookahead = 1500 * sim.Nanosecond

// Group returns the engine group the network runs on.
func (n *Network) Group() *sim.Group { return n.group }

// adopt makes g the network's engine group: one packet pool and one
// deferred-completion list per shard, and the barrier hooks.
func (n *Network) adopt(g *sim.Group) {
	n.group = g
	n.pools = make([]packetPool, g.Shards())
	n.shardSt = make([]shardState, g.Shards())
	g.OnBarrier(n.barrier)
}

// barrier is the window-barrier hook: with every shard quiesced it
// rebalances the packet pools, then replays the deferred completions.
func (n *Network) barrier(now sim.Time) {
	n.rebalancePools()
	n.drainShardCompletions(now)
}

// EnableSharding re-homes the network from the one-shard group it was
// born on onto the shards of g: assign[nodeID] names the shard owning
// each node. Call it after the topology is complete (every Connect done)
// and before any traffic or protocol attachments: the network must
// still be idle, and sim.NewGroup has already panicked if a node lane
// fired or holds an event (an attached ticker, say). g's global lane
// must be the engine the network was built on; every scheduling site
// against n.Engine keeps working and runs at window barriers.
//
// The lookahead contract is the caller's (the topology partitioner's)
// responsibility: every link between nodes on different shards must
// have PropDelay >= g.Lookahead().
func (n *Network) EnableSharding(g *sim.Group, assign []int) {
	if g.Global() != n.Engine {
		panic("netsim: sharding group must wrap the network's engine")
	}
	if len(assign) != len(n.nodes) {
		panic("netsim: shard assignment must cover every node")
	}
	if n.nextFlow != 0 {
		panic("netsim: EnableSharding must run before any traffic")
	}
	n.adopt(g)
	k := g.Shards()
	for id, node := range n.nodes {
		sh := assign[id]
		if sh < 0 || sh >= k {
			panic("netsim: shard assignment out of range")
		}
		eng := g.Shard(sh)
		switch v := node.(type) {
		case *Host:
			v.eng, v.shard = eng, sh
		case *Switch:
			v.eng, v.shard = eng, sh
		}
		for _, p := range node.Ports() {
			p.eng, p.shard, p.peerShard = eng, sh, assign[p.PeerNode.ID()]
			if p.peerShard != sh && p.PropDelay < g.Lookahead() {
				panic("netsim: cross-shard link faster than group lookahead")
			}
		}
	}
}

// nodeShard returns the shard a node lives on.
func nodeShard(node Node) int {
	switch v := node.(type) {
	case *Host:
		return v.shard
	case *Switch:
		return v.shard
	}
	return 0
}

// drainShardCompletions replays the flow completions and retirements
// each shard deferred, in a partition-independent order, on the global
// lane. Completion callbacks (OnFlowDone) may start new flows or stop
// the engine; registry mutation (removeFlowLater) happens here too, so
// in-window code only ever reads the flow registry.
func (n *Network) drainShardCompletions(now sim.Time) {
	nd, nr := 0, 0
	for i := range n.shardSt {
		nd += len(n.shardSt[i].done)
		nr += len(n.shardSt[i].retire)
	}
	if nd > 0 {
		n.doneScratch = n.doneScratch[:0]
		for i := range n.shardSt {
			st := &n.shardSt[i]
			n.doneScratch = append(n.doneScratch, st.done...)
			for j := range st.done {
				st.done[j] = nil
			}
			st.done = st.done[:0]
		}
		slices.SortFunc(n.doneScratch, func(x, y *Flow) int {
			return cmp.Or(cmp.Compare(x.FinishTime, y.FinishTime),
				cmp.Compare(x.dst.id, y.dst.id), cmp.Compare(x.ID, y.ID))
		})
		for _, f := range n.doneScratch {
			if n.OnFlowDone != nil {
				n.OnFlowDone(f)
			}
			if !f.Reliable {
				n.removeFlowLater(f)
			}
		}
	}
	if nr > 0 {
		n.retireScratch = n.retireScratch[:0]
		for i := range n.shardSt {
			st := &n.shardSt[i]
			n.retireScratch = append(n.retireScratch, st.retire...)
			for j := range st.retire {
				st.retire[j] = retireReq{}
			}
			st.retire = st.retire[:0]
		}
		slices.SortFunc(n.retireScratch, func(x, y retireReq) int {
			return cmp.Or(cmp.Compare(x.at, y.at),
				cmp.Compare(x.f.src.id, y.f.src.id), cmp.Compare(x.f.ID, y.f.ID))
		})
		for _, r := range n.retireScratch {
			n.removeFlowLater(r.f)
		}
	}
}

// scheduleArrival puts a serialized packet's arrival on the peer's heap
// in keyed form, through the cross-shard mailbox when the peer lives
// elsewhere and a window is executing. The (lane, seq) pair comes from
// the transmitting port, so arrival order at equal timestamps is
// partition-independent. A packet that crosses shards joins the peer
// shard's pool here, so the caller owns neither it nor its pool stamp
// afterwards.
func (p *Port) scheduleArrival(delay sim.Time, pkt *Packet) {
	g := p.net.group
	if delay < 0 {
		delay = 0
	}
	at := p.eng.Now() + delay
	seq := p.linkSeq
	p.linkSeq++
	if p.peerShard == p.shard {
		p.eng.AtKeyed(at, p.arrLane, seq, p.peerCtx, portArrive, p, pkt)
		return
	}
	pkt.pool = int32(p.peerShard)
	if g.InWindow() {
		g.Send(p.shard, p.peerShard, at, p.arrLane, seq, p.peerCtx, portArrive, p, pkt)
		return
	}
	// Barrier/global context: every heap is quiescent, so push directly.
	g.Shard(p.peerShard).AtKeyed(at, p.arrLane, seq, p.peerCtx, portArrive, p, pkt)
}

// NodeCount returns how many nodes (hosts and switches) the network has —
// the length a shard-assignment slice must cover.
func (n *Network) NodeCount() int { return len(n.nodes) }
