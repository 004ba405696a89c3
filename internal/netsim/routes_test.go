package netsim_test

import (
	"reflect"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// TestComputeRoutesMatchesReference compares the dense-slice route
// computation with the map-backed search it replaced, on every shipped
// fabric shape, intact and with links and switches failed.
func TestComputeRoutesMatchesReference(t *testing.T) {
	// The k = 16 scale fabric (experiments.ScaleFatTree).
	k16 := topology.FatTreeConfig{
		Cores: 8, Edges: 16, HostsPerEdge: 64, LinksPerPair: 2,
		HostRate: netsim.Gbps(40), CoreRate: netsim.Gbps(80),
	}
	fabrics := []struct {
		name string
		net  *netsim.Network
	}{
		{"paper fat-tree", topology.BuildFatTree(sim.New(), 1, topology.PaperFatTree()).Net},
		{"k16 fat-tree", topology.BuildFatTree(sim.New(), 1, k16).Net},
		{"star", topology.BuildStar(sim.New(), 1, 10, netsim.Gbps(40)).Net},
		{"multibottleneck", topology.BuildMultiBottleneck(sim.New(), 1).Net},
	}
	for _, f := range fabrics {
		net := f.net
		check := func(state string) {
			t.Helper()
			net.ComputeRoutes()
			if got, want := net.RouteTables(), net.ReferenceRouteTables(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: route tables differ from the reference", f.name, state)
			}
		}
		check("intact")

		// One inter-switch link where the fabric has any, else a host link.
		sw := net.Switches()[len(net.Switches())-1]
		link := sw.Ports()[0]
		for _, p := range sw.Ports() {
			if _, ok := p.PeerNode.(*netsim.Switch); ok {
				link = p
				break
			}
		}
		net.FailLink(link)
		check("one link down")

		dead := net.Switches()[0]
		net.FailSwitch(dead)
		check("one link and one switch down")

		net.RestoreLink(link)
		net.RestoreSwitch(dead)
		check("restored")
	}
}

// TestInvalidateSharedChoiceSet fails uplinks of one edge switch of the
// paper's fat-tree. Every remote host sits behind the edge's one uplink
// set, so removing a port from it must leave all of them with the same
// survivors at once, local hosts untouched; a set emptied by invalidation
// must blackhole.
func TestInvalidateSharedChoiceSet(t *testing.T) {
	ft := topology.BuildFatTree(sim.New(), 1, topology.PaperFatTree())
	net, edge := ft.Net, ft.Edges[0]
	if got, want := edge.ChoiceSets(), len(ft.Hosts[0])+1; got != want {
		t.Fatalf("edge switch holds %d choice sets, want %d (one per local host plus the uplinks)", got, want)
	}
	if got, want := ft.Cores[0].ChoiceSets(), len(ft.Edges); got != want {
		t.Fatalf("core switch holds %d choice sets, want %d (one per edge)", got, want)
	}
	var remote []netsim.NodeID
	for _, hosts := range ft.Hosts[1:] {
		for _, h := range hosts {
			remote = append(remote, h.ID())
		}
	}
	var uplinks []int
	for _, p := range ft.EdgeUp {
		if p.Owner() == netsim.Node(edge) {
			uplinks = append(uplinks, p.Index)
		}
	}
	before := net.RouteTables()[edge.ID()]
	for _, dst := range remote {
		if !reflect.DeepEqual(before[dst], uplinks) {
			t.Fatalf("edge routes to remote host %d over %v, want the uplinks %v", dst, before[dst], uplinks)
		}
	}

	for k, dead := range uplinks {
		net.FailLink(edge.Port(dead))
		tables := net.RouteTables()[edge.ID()]
		survivors := uplinks[k+1:]
		if len(survivors) == 0 {
			survivors = nil // no entry at all
		}
		for _, dst := range remote {
			if got := tables[dst]; !reflect.DeepEqual(got, survivors) {
				t.Fatalf("after failing %d uplinks: route to host %d = %v, want %v", k+1, dst, got, survivors)
			}
		}
		for _, h := range ft.Hosts[0] {
			if !reflect.DeepEqual(tables[h.ID()], before[h.ID()]) {
				t.Fatalf("failing an uplink changed the route to local host %s", h.Name)
			}
		}
	}

	pkt := net.AcquirePacket(edge)
	pkt.Dst, pkt.Kind, pkt.Cls, pkt.Size = remote[0], netsim.KindData, netsim.ClassData, 1000
	edge.Arrive(pkt, 0)
	if edge.BlackholeDrops != 1 {
		t.Errorf("packet toward an emptied set: %d blackhole drops, want 1", edge.BlackholeDrops)
	}
}
