package topology

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Partition maps every node of a built network onto one of K shards of
// the event engine group (sim.Group). The cut respects the lookahead
// contract: every link crossing shards keeps at least the lookahead of
// propagation delay, so conservative windowed execution never delivers a
// packet into a shard's past.
type Partition struct {
	K      int
	Assign []int // shard per NodeID, len == net.NodeCount()

	// lookahead is the minimum propagation delay over cross-shard links:
	// the window width the engine group may run ahead by. A one-shard
	// partition has no cross-shard links; it keeps
	// netsim.DefaultLookahead, the window the network was born with, so
	// applying it changes nothing about the run.
	lookahead sim.Time
}

// Apply re-homes the network from the one-shard group it was born on
// onto a fresh K-shard group over the same engine, and returns that
// group. Call after the topology is complete and before any protocol
// attachments or traffic: it panics once a node lane has fired or holds
// an event.
func (p Partition) Apply(net *netsim.Network) *sim.Group {
	g := sim.NewGroup(net.Engine, p.K, p.lookahead)
	net.EnableSharding(g, p.Assign)
	return g
}

// finish computes the cut's lookahead from the assignment.
func finish(net *netsim.Network, k int, assign []int) Partition {
	la := sim.Time(0)
	for id := range assign {
		for _, port := range net.Node(netsim.NodeID(id)).Ports() {
			if assign[port.PeerNode.ID()] == assign[id] {
				continue
			}
			if la == 0 || port.PropDelay < la {
				la = port.PropDelay
			}
		}
	}
	if la == 0 {
		// No cross-shard links (k == 1, or a degenerate cut): any positive
		// window is safe, but the window is part of the run's digest, so
		// keep the one every network is born with.
		la = netsim.DefaultLookahead
	}
	return Partition{K: k, Assign: assign, lookahead: la}
}

// PartitionFatTree cuts a fat-tree pod-aligned: each edge switch and the
// hosts behind it form one pod, pods are dealt round-robin onto shards,
// and core switches are spread round-robin as well. Host↔edge links are
// therefore never cut — only edge↔core links cross shards, and those all
// carry the fabric's full propagation delay. k is clamped to the number
// of edge switches (one pod is the finest indivisible unit); k <= 1
// collapses to a single shard.
func PartitionFatTree(ft *FatTree, k int) Partition {
	if k > len(ft.Edges) {
		k = len(ft.Edges)
	}
	if k < 1 {
		k = 1
	}
	assign := make([]int, ft.Net.NodeCount())
	for i, core := range ft.Cores {
		assign[core.ID()] = i % k
	}
	for e, edge := range ft.Edges {
		sh := e % k
		assign[edge.ID()] = sh
		for _, h := range ft.Hosts[e] {
			assign[h.ID()] = sh
		}
	}
	return finish(ft.Net, k, assign)
}

// PartitionAuto cuts an arbitrary built network switch-aligned: switches
// are dealt round-robin onto shards in ID order and every host follows
// the switch its NIC connects to, so host↔switch links are never cut.
// k is clamped to the number of switches; degenerate topologies (a
// single switch — the star, for instance) collapse to one shard.
func PartitionAuto(net *netsim.Network, k int) Partition {
	sws := net.Switches()
	if k > len(sws) {
		k = len(sws)
	}
	if k < 1 {
		k = 1
	}
	assign := make([]int, net.NodeCount())
	for i, sw := range sws {
		assign[sw.ID()] = i % k
	}
	for _, h := range net.Hosts() {
		if nic := h.NIC(); nic != nil && nic.PeerNode != nil {
			assign[h.ID()] = assign[nic.PeerNode.ID()]
		}
	}
	return finish(net, k, assign)
}
