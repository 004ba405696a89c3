package netsim_test

import (
	"reflect"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// checkRoutes recomputes net's routes and compares them, and the number
// each switch gives each port set, with the map-backed reference search
// per destination host.
func checkRoutes(t testing.TB, net *netsim.Network, what string) {
	t.Helper()
	net.ComputeRoutes()
	ref := net.ReferenceRouteTables()
	if got := net.RouteTables(); !reflect.DeepEqual(got, ref) {
		t.Errorf("%s: route tables differ from the reference", what)
	}
	if got, want := net.RouteSetNumbers(), net.ReferenceRouteSetNumbers(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: set numbers differ from the reference", what)
	}
}

// TestComputeRoutesMatchesReference compares the route computation (one
// search per attach switch) with the map-backed search per host it
// replaced, on every shipped fabric shape, intact and with links,
// switches and host links failed.
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
			checkRoutes(t, net, f.name+", "+state)
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

		// Host links: the NIC end alone, the switch end alone and both
		// ends, on three hosts of the same switch where the fabric has them.
		hosts := net.Hosts()
		nic := func(i int) *netsim.Port { return hosts[i%len(hosts)].NIC() }
		nic(0).SetLinkDown(true)
		switchEnd := nic(1)
		switchEnd.PeerNode.Ports()[switchEnd.PeerPort].SetLinkDown(true)
		net.FailLink(nic(2))
		check("host links down at the NIC end, the switch end and both ends")

		// Hosts behind a failed edge: one with its link restored (the
		// switch stays failed), one with its NIC end down.
		edge := hosts[len(hosts)-1].NIC().PeerNode.(*netsim.Switch)
		net.FailSwitch(edge)
		net.RestoreLink(nic(len(hosts) - 1))
		nic(len(hosts) - 2).SetLinkDown(true)
		check("hosts behind a failed switch")
	}
}

// FuzzComputeRoutes draws a small fat-tree, star, multibottleneck or
// asymmetric fabric, takes down a random set of link ends, whole links
// and switches (and restores some links), and checks the route tables and set numbers against the
// map-backed search per destination host.
func FuzzComputeRoutes(f *testing.F) {
	f.Add(uint8(0), uint8(5), []byte{})
	f.Add(uint8(0), uint8(17), []byte{0, 0, 0, 9, 1, 3, 2, 0})
	f.Add(uint8(1), uint8(4), []byte{0, 1, 1, 2, 4, 0})
	f.Add(uint8(2), uint8(0), []byte{2, 1, 0, 0, 0, 5})
	f.Add(uint8(3), uint8(0), []byte{1, 0, 3, 1, 2, 2})
	f.Add(uint8(0), uint8(5), []byte{3, 1, 4, 0})
	f.Fuzz(func(t *testing.T, shape, size uint8, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		var net *netsim.Network
		switch shape % 4 {
		case 0:
			cfg := topology.SmallFatTree(1+int(size%3), 1+int(size/3%4), 1+int(size/12%4), 40)
			cfg.LinksPerPair = 1 + int(size/48%2)
			net = topology.BuildFatTree(sim.New(), 1, cfg).Net
		case 1:
			net = topology.BuildStar(sim.New(), 1, 1+int(size%8), netsim.Gbps(40)).Net
		case 2:
			net = topology.BuildMultiBottleneck(sim.New(), 1).Net
		default:
			net = topology.BuildAsymmetric(sim.New(), 1).Net
		}
		var ports []*netsim.Port
		for _, h := range net.Hosts() {
			ports = append(ports, h.NIC())
		}
		for _, s := range net.Switches() {
			ports = append(ports, s.Ports()...)
		}
		switches := net.Switches()
		for ; len(ops) >= 2; ops = ops[2:] {
			arg := int(ops[1])
			switch ops[0] % 5 {
			case 0, 1: // one end of a link
				ports[arg%len(ports)].SetLinkDown(true)
			case 2: // both ends
				net.FailLink(ports[arg%len(ports)])
			case 3:
				net.FailSwitch(switches[arg%len(switches)])
			default: // both ends back up, even at a failed switch
				net.RestoreLink(ports[arg%len(ports)])
			}
		}
		checkRoutes(t, net, "fuzzed fabric")
	})
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
