package topology

import (
	"reflect"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// TestPartitionFatTreePodAligned: pods are dealt onto shards in balanced
// round-robin fashion and no host↔edge (intra-pod) link is ever cut.
func TestPartitionFatTreePodAligned(t *testing.T) {
	cfg := FatTreeConfig{
		Cores: 4, Edges: 8, HostsPerEdge: 6, LinksPerPair: 2,
		HostRate: netsim.Gbps(40), CoreRate: netsim.Gbps(100),
	}
	for _, k := range []int{1, 2, 4, 8} {
		ft := BuildFatTree(sim.New(), 1, cfg)
		p := PartitionFatTree(ft, k)
		if p.K != k {
			t.Fatalf("k=%d: partition K = %d", k, p.K)
		}
		if len(p.Assign) != ft.Net.NodeCount() {
			t.Fatalf("k=%d: assignment covers %d of %d nodes", k, len(p.Assign), ft.Net.NodeCount())
		}

		// Balance: pods per shard differ by at most one.
		podsPer := make([]int, k)
		for e, edge := range ft.Edges {
			sh := p.Assign[edge.ID()]
			if sh != e%k {
				t.Errorf("k=%d: edge %d on shard %d, want round-robin %d", k, e, sh, e%k)
			}
			podsPer[sh]++
		}
		min, max := podsPer[0], podsPer[0]
		for _, n := range podsPer {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("k=%d: unbalanced pods per shard %v", k, podsPer)
		}

		// Pod alignment: every host shares its edge switch's shard, so
		// host↔edge links are intra-shard by construction.
		for e, edge := range ft.Edges {
			for _, h := range ft.Hosts[e] {
				if p.Assign[h.ID()] != p.Assign[edge.ID()] {
					t.Errorf("k=%d: host %s split from its edge", k, h.Name)
				}
			}
		}

		// No intra-pod cross-shard links anywhere: walk every port and
		// require cut links to be edge↔core.
		for id := 0; id < ft.Net.NodeCount(); id++ {
			node := ft.Net.Node(netsim.NodeID(id))
			for _, port := range node.Ports() {
				if p.Assign[id] == p.Assign[port.PeerNode.ID()] {
					continue
				}
				_, aSwitch := node.(*netsim.Switch)
				_, bSwitch := port.PeerNode.(*netsim.Switch)
				if !aSwitch || !bSwitch {
					t.Errorf("k=%d: cross-shard link touches a host (%T ↔ %T)",
						k, node, port.PeerNode)
				}
			}
		}

		// Lookahead: all links carry LinkDelay, so any cut reports it.
		if p.lookahead != LinkDelay {
			t.Errorf("k=%d: lookahead %v, want %v", k, p.lookahead, LinkDelay)
		}
	}
}

// TestPartitionFatTreeClamps: more shards than pods clamps to the pod
// count; k <= 0 collapses to one shard.
func TestPartitionFatTreeClamps(t *testing.T) {
	ft := BuildFatTree(sim.New(), 1, FatTreeConfig{
		Cores: 2, Edges: 3, HostsPerEdge: 2, LinksPerPair: 1,
		HostRate: netsim.Gbps(40), CoreRate: netsim.Gbps(40),
	})
	if p := PartitionFatTree(ft, 16); p.K != 3 {
		t.Errorf("k=16 on 3 edges: K = %d, want 3", p.K)
	}
	if p := PartitionFatTree(ft, 0); p.K != 1 {
		t.Errorf("k=0: K = %d, want 1", p.K)
	}
}

// TestPartitionAutoStarCollapses: a single-switch topology has nothing
// to cut — any requested k collapses to one shard and the whole fabric
// lands on it.
func TestPartitionAutoStarCollapses(t *testing.T) {
	st := BuildStar(sim.New(), 1, 8, netsim.Gbps(40))
	p := PartitionAuto(st.Net, 8)
	if p.K != 1 {
		t.Fatalf("star: K = %d, want 1", p.K)
	}
	for id, sh := range p.Assign {
		if sh != 0 {
			t.Errorf("star: node %d on shard %d", id, sh)
		}
	}
}

// TestPartitionAutoSwitchAligned: hosts follow their switch, and the
// multi-bottleneck topology splits across two shards without cutting any
// host link.
func TestPartitionAutoSwitchAligned(t *testing.T) {
	m := BuildMultiBottleneck(sim.New(), 1)
	p := PartitionAuto(m.Net, 2)
	if p.K != 2 {
		t.Fatalf("K = %d, want 2", p.K)
	}
	if p.Assign[m.S0.ID()] == p.Assign[m.S1.ID()] {
		t.Error("both switches on one shard")
	}
	for _, h := range m.Net.Hosts() {
		if p.Assign[h.ID()] != p.Assign[h.NIC().PeerNode.ID()] {
			t.Errorf("host %s split from its switch", h.Name)
		}
	}
}

// TestPartitionApplyRunsSharded: Apply builds a group over the fabric's
// engine and the network actually runs on it.
func TestPartitionApplyRunsSharded(t *testing.T) {
	ft := BuildFatTree(sim.New(), 1, FatTreeConfig{
		Cores: 2, Edges: 4, HostsPerEdge: 2, LinksPerPair: 1,
		HostRate: netsim.Gbps(40), CoreRate: netsim.Gbps(40),
	})
	g := PartitionFatTree(ft, 4).Apply(ft.Net)
	if ft.Net.Group() != g {
		t.Fatal("network not sharded after Apply")
	}
	if g.Shards() != 4 || g.Lookahead() != LinkDelay {
		t.Fatalf("group shards=%d lookahead=%v", g.Shards(), g.Lookahead())
	}
	src := ft.Hosts[0][0]
	dst := ft.Hosts[3][1]
	f := ft.Net.StartFlow(src, dst, netsim.FlowConfig{Size: 256 * netsim.KB})
	ft.Net.Engine.Run()
	if !f.Done() {
		t.Errorf("cross-shard flow did not complete (delivered %d)", f.DeliveredBytes())
	}
}

// TestBornGroupedEqualsOneShardApply: a network is on a one-shard group
// from construction, and PartitionAuto(net, 1).Apply re-homes it onto an
// identical one — same lookahead, so the same barrier cadence — so a run
// with the Apply and a run without it are the same run.
func TestBornGroupedEqualsOneShardApply(t *testing.T) {
	type done struct {
		ID netsim.FlowID
		At sim.Time
	}
	type outcome struct {
		Order []done // OnFlowDone calls, in call order
		Rx    []uint64
		Fired uint64
		Now   sim.Time
	}
	run := func(apply bool) outcome {
		engine := sim.New()
		m := BuildMultiBottleneck(engine, 1)
		if got := m.Net.Group().Lookahead(); got != netsim.DefaultLookahead {
			t.Fatalf("born lookahead %v, want %v", got, netsim.DefaultLookahead)
		}
		if apply {
			p := PartitionAuto(m.Net, 1)
			if p.lookahead != netsim.DefaultLookahead {
				t.Fatalf("one-shard cut lookahead %v, want the born %v", p.lookahead, netsim.DefaultLookahead)
			}
			if g := p.Apply(m.Net); g.Shards() != 1 || m.Net.Group() != g {
				t.Fatalf("Apply(1): shards=%d, adopted=%v", g.Shards(), m.Net.Group() == g)
			}
		}
		var out outcome
		m.Net.OnFlowDone = func(f *netsim.Flow) { out.Order = append(out.Order, done{f.ID, f.FinishTime}) }
		// Same-size flows into one sink finish within a window of each
		// other, so the barrier replay order is exercised.
		for round := 0; round < 3; round++ {
			for i := 0; i <= 4; i++ {
				m.Net.StartFlow(m.A[i], m.B[0], netsim.FlowConfig{Size: int64(20+round) * netsim.MTUPayload})
			}
			m.Net.StartFlow(m.B5, m.B[0], netsim.FlowConfig{Size: int64(20+round) * netsim.MTUPayload})
		}
		engine.Run()
		for _, h := range m.Net.Hosts() {
			out.Rx = append(out.Rx, h.RxDataBytes)
		}
		out.Fired, out.Now = m.Net.Group().Fired(), engine.Now()
		return out
	}
	born, applied := run(false), run(true)
	if len(born.Order) != 18 {
		t.Fatalf("%d flows completed, want 18", len(born.Order))
	}
	if !reflect.DeepEqual(born, applied) {
		t.Errorf("runs differ:\nborn:    %+v\napplied: %+v", born, applied)
	}
}

// TestApplyOnBusyNetworkPanics: re-homing is for a still-idle network. A
// node lane that already holds an event (a CP ticker attached too early)
// would be orphaned on the old shard engine, so Apply refuses.
func TestApplyOnBusyNetworkPanics(t *testing.T) {
	m := BuildMultiBottleneck(sim.New(), 1)
	m.S0.Port(0).Engine().After(sim.Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Apply on a network with a pending node-lane event did not panic")
		}
	}()
	PartitionAuto(m.Net, 2).Apply(m.Net)
}
