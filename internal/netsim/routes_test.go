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
