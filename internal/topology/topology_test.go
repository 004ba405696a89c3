package topology

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func TestPFCThresholds(t *testing.T) {
	if PFCThreshold(netsim.Gbps(40)) != 500*netsim.KB {
		t.Error("40G threshold != 500KB")
	}
	if PFCThreshold(netsim.Gbps(100)) != 800*netsim.KB {
		t.Error("100G threshold != 800KB")
	}
	if PFCThreshold(netsim.Gbps(10)) != 500*netsim.KB {
		t.Error("10G threshold != 500KB")
	}
}

func TestBuildStarShape(t *testing.T) {
	engine := sim.New()
	st := BuildStar(engine, 1, 5, netsim.Gbps(40))
	if len(st.Sources) != 5 {
		t.Fatalf("sources = %d", len(st.Sources))
	}
	if len(st.Net.Hosts()) != 6 || len(st.Net.Switches()) != 1 {
		t.Errorf("nodes = %d hosts, %d switches", len(st.Net.Hosts()), len(st.Net.Switches()))
	}
	if st.Bottleneck.PeerNode != netsim.Node(st.Dst) {
		t.Error("bottleneck port does not face the destination")
	}
	if !st.Switch.Buffer.PFCEnabled {
		t.Error("PFC not enabled")
	}
	// End to end sanity.
	f := st.Net.StartFlow(st.Sources[0], st.Dst, netsim.FlowConfig{Size: 10000})
	engine.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Error("flow across the star failed")
	}
}

func TestBuildMultiBottleneckShape(t *testing.T) {
	engine := sim.New()
	m := BuildMultiBottleneck(engine, 1)
	if len(m.A) != 5 || len(m.B) != 5 {
		t.Fatalf("A=%d B=%d", len(m.A), len(m.B))
	}
	if m.Inter.LinkRate != netsim.Gbps(40) {
		t.Errorf("inter-switch rate = %v", m.Inter.LinkRate)
	}
	if m.Access.LinkRate != netsim.Gbps(10) {
		t.Errorf("access rate = %v", m.Access.LinkRate)
	}
	if m.Inter.PeerNode != netsim.Node(m.Net.Switches()[1]) {
		t.Error("inter port does not face S1")
	}
	if m.Access.PeerNode != netsim.Node(m.B[0]) {
		t.Error("access port does not face B0")
	}
	// D0 (A0->B0) must traverse both CPs: check hop count via flow.
	f := m.Net.StartFlow(m.A[0], m.B[0], netsim.FlowConfig{Size: 5000})
	f5 := m.Net.StartFlow(m.B5, m.B[0], netsim.FlowConfig{Size: 5000})
	engine.RunUntil(sim.Millisecond)
	if !f.Done() || !f5.Done() {
		t.Error("multi-bottleneck flows failed")
	}
}

func TestBuildAsymmetricShape(t *testing.T) {
	engine := sim.New()
	a := BuildAsymmetric(engine, 1)
	if len(a.Slow) != 5 || len(a.Fast) != 2 {
		t.Fatalf("slow=%d fast=%d", len(a.Slow), len(a.Fast))
	}
	if a.Slow[0].NIC().LinkRate != netsim.Gbps(40) {
		t.Error("slow access not 40G")
	}
	if a.Fast[0].NIC().LinkRate != netsim.Gbps(100) {
		t.Error("fast access not 100G")
	}
	if a.Dst.NIC().LinkRate != netsim.Gbps(100) {
		t.Error("bottleneck not 100G")
	}
	for _, src := range append(append([]*netsim.Host{}, a.Slow...), a.Fast...) {
		f := a.Net.StartFlow(src, a.Dst, netsim.FlowConfig{Size: 2000})
		engine.RunUntil(engine.Now() + sim.Millisecond)
		if !f.Done() {
			t.Fatalf("flow from %s failed", src.Name)
		}
	}
}

func TestPaperFatTreeShape(t *testing.T) {
	engine := sim.New()
	ft := BuildFatTree(engine, 1, PaperFatTree())
	if len(ft.Cores) != 3 || len(ft.Edges) != 3 {
		t.Fatalf("cores=%d edges=%d", len(ft.Cores), len(ft.Edges))
	}
	if len(ft.Hosts) != 3 || len(ft.Hosts[0]) != 30 {
		t.Fatalf("hosts per edge = %d", len(ft.Hosts[0]))
	}
	// 3 edges x 3 cores x 2 links.
	if len(ft.EdgeUp) != 18 || len(ft.CorePorts) != 18 {
		t.Errorf("uplinks = %d, core ports = %d, want 18", len(ft.EdgeUp), len(ft.CorePorts))
	}
	if len(ft.EdgeDown) != 90 {
		t.Errorf("downlinks = %d, want 90", len(ft.EdgeDown))
	}
	// ECMP: an edge switch must see 6 equal-cost uplink ports toward a
	// host behind another edge.
	f := ft.Net.StartFlow(ft.Hosts[0][0], ft.Hosts[2][7], netsim.FlowConfig{Size: 4000})
	engine.RunUntil(sim.Millisecond)
	if !f.Done() {
		t.Error("cross-edge flow failed")
	}
}

func TestScaledFatTreeKeepsOversubscription(t *testing.T) {
	cfg := ScaledFatTree(8)
	hostCap := float64(cfg.HostsPerEdge) * cfg.HostRate.Gbps()
	upCap := float64(cfg.Cores*cfg.LinksPerPair) * cfg.CoreRate.Gbps()
	if hostCap/upCap != 2 {
		t.Errorf("oversubscription = %.2f, want 2", hostCap/upCap)
	}
}

func TestFatTreeECMPBalance(t *testing.T) {
	engine := sim.New()
	ft := BuildFatTree(engine, 1, ScaledFatTree(4))
	// Many flows from edge0 to edge2: uplink utilization should spread.
	for i := 0; i < 64; i++ {
		src := ft.Hosts[0][i%4]
		dst := ft.Hosts[2][(i+1)%4]
		ft.Net.StartFlow(src, dst, netsim.FlowConfig{Size: 200_000})
	}
	engine.RunUntil(20 * sim.Millisecond)
	used := 0
	for _, p := range ft.EdgeUp[:6] { // edge0's uplinks
		if p.TxDataBytes > 0 {
			used++
		}
	}
	if used < 4 {
		t.Errorf("only %d of 6 uplinks carried traffic; ECMP not spreading", used)
	}
}
