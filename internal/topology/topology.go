// Package topology builds the four network topologies of the paper's
// evaluation: the single-bottleneck star (§6.1 micro-benchmarks), the
// multi-bottleneck network of Fig. 10, the asymmetric 2:1 oversubscribed
// network (§6.1), and the two-level fat-tree of §6.3.
package topology

import (
	"fmt"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// LinkDelay is the paper's per-link propagation delay (1.5 µs, §6).
const LinkDelay = 1500 * sim.Nanosecond

// PFCThreshold returns the paper's PFC Xoff watermark for a fabric built
// from links of the given rate: 500 KB at 40 Gb/s, 800 KB at 100 Gb/s.
func PFCThreshold(rate netsim.Rate) int {
	if rate.Gbps() >= 100 {
		return 800 * netsim.KB
	}
	return 500 * netsim.KB
}

// Buffer returns a lossless PFC-enabled buffer configuration for switches
// whose ingress links run at rate.
func Buffer(rate netsim.Rate) netsim.BufferConfig {
	return netsim.BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: PFCThreshold(rate),
	}
}

// Star is the §6.1 micro-benchmark topology: N sources and one
// destination on a single switch; the switch-to-destination link is the
// bottleneck.
type Star struct {
	Net        *netsim.Network
	Switch     *netsim.Switch
	Sources    []*netsim.Host
	Dst        *netsim.Host
	Bottleneck *netsim.Port // switch egress toward Dst
	LinkRate   netsim.Rate
}

// BuildStar constructs a star with n sources on links of the given rate.
func BuildStar(engine *sim.Engine, seed int64, n int, rate netsim.Rate) *Star {
	net := netsim.New(engine, seed)
	sw := net.AddSwitch("s0", Buffer(rate))
	st := &Star{Net: net, Switch: sw, LinkRate: rate}
	for i := 0; i < n; i++ {
		h := net.AddHost(fmt.Sprintf("src%d", i))
		net.Connect(h, sw, rate, LinkDelay)
		st.Sources = append(st.Sources, h)
	}
	st.Dst = net.AddHost("dst")
	st.Bottleneck, _ = net.Connect(sw, st.Dst, rate, LinkDelay)
	net.ComputeRoutes()
	return st
}

// MultiBottleneck is the Fig. 10 topology: sources A0..A4 and B5,
// destinations B0..B4, switches S0 and S1. D0 (A0→B0) crosses both the
// S0→S1 inter-switch link and the S1→B0 access link; D5 (B5→B0) only the
// access link; D1..D4 only the inter-switch link.
type MultiBottleneck struct {
	Net    *netsim.Network
	A      []*netsim.Host // A0..A4 behind S0
	B5     *netsim.Host   // source behind S1
	B      []*netsim.Host // B0..B4 behind S1
	Inter  *netsim.Port   // S0 egress toward S1 (the 40G CP)
	Access *netsim.Port   // S1 egress toward B0 (the 10G CP)
}

// BuildMultiBottleneck constructs Fig. 10: 10 Gb/s access links and a
// 40 Gb/s inter-switch link.
func BuildMultiBottleneck(engine *sim.Engine, seed int64) *MultiBottleneck {
	net := netsim.New(engine, seed)
	access := netsim.Gbps(10)
	inter := netsim.Gbps(40)
	s0 := net.AddSwitch("S0", Buffer(inter))
	s1 := net.AddSwitch("S1", Buffer(inter))
	m := &MultiBottleneck{Net: net}
	for i := 0; i < 5; i++ {
		h := net.AddHost(fmt.Sprintf("A%d", i))
		net.Connect(h, s0, access, LinkDelay)
		m.A = append(m.A, h)
	}
	m.B5 = net.AddHost("B5")
	net.Connect(m.B5, s1, access, LinkDelay)
	for i := 0; i < 5; i++ {
		h := net.AddHost(fmt.Sprintf("B%d", i))
		var sp *netsim.Port
		sp, _ = net.Connect(s1, h, access, LinkDelay)
		if i == 0 {
			m.Access = sp
		}
		m.B = append(m.B, h)
	}
	m.Inter, _ = net.Connect(s0, s1, inter, LinkDelay)
	net.ComputeRoutes()
	return m
}

// Asymmetric is the §6.1 asymmetric topology: 5 sources on 40 Gb/s links
// behind S0 and 2 sources on 100 Gb/s links behind S1, all feeding one
// destination behind S2 over 100 Gb/s links (2:1 oversubscription at the
// S2→B0 bottleneck).
type Asymmetric struct {
	Net  *netsim.Network
	Slow []*netsim.Host // A0..A4, 40G access
	Fast []*netsim.Host // A5..A6, 100G access
	Dst  *netsim.Host   // B0, behind the S2→B0 bottleneck
}

// BuildAsymmetric constructs the asymmetric topology.
func BuildAsymmetric(engine *sim.Engine, seed int64) *Asymmetric {
	net := netsim.New(engine, seed)
	g40 := netsim.Gbps(40)
	g100 := netsim.Gbps(100)
	s0 := net.AddSwitch("S0", Buffer(g40))
	s1 := net.AddSwitch("S1", Buffer(g100))
	s2 := net.AddSwitch("S2", Buffer(g100))
	a := &Asymmetric{Net: net}
	for i := 0; i < 5; i++ {
		h := net.AddHost(fmt.Sprintf("A%d", i))
		net.Connect(h, s0, g40, LinkDelay)
		a.Slow = append(a.Slow, h)
	}
	for i := 5; i < 7; i++ {
		h := net.AddHost(fmt.Sprintf("A%d", i))
		net.Connect(h, s1, g100, LinkDelay)
		a.Fast = append(a.Fast, h)
	}
	net.Connect(s0, s2, g100, LinkDelay)
	net.Connect(s1, s2, g100, LinkDelay)
	a.Dst = net.AddHost("B0")
	net.Connect(s2, a.Dst, g100, LinkDelay)
	net.ComputeRoutes()
	return a
}

// FatTree is the §6.3 large-scale topology: a two-level fat-tree with
// core switches, edge switches, and hosts behind each edge. Each
// edge-core pair is connected by LinksPerPair parallel 100 Gb/s links
// (ECMP spreads flows across them); hosts attach at 40 Gb/s (2:1
// oversubscription with the paper's counts).
type FatTree struct {
	Net       *netsim.Network
	Cores     []*netsim.Switch
	Edges     []*netsim.Switch
	Hosts     [][]*netsim.Host // indexed by edge
	CoreRate  netsim.Rate
	CorePorts []*netsim.Port // core egress ports (down toward edges)
	EdgeUp    []*netsim.Port // edge egress ports toward cores
	EdgeDown  []*netsim.Port // edge egress ports toward hosts
}

// FatTreeConfig sizes a fat-tree. The paper uses 3 cores, 3 edges, 30
// hosts per edge, and 2 parallel 100G core links per edge-core pair; the
// default benches shrink the host count to stay laptop-friendly while
// keeping the 2:1 oversubscription.
type FatTreeConfig struct {
	Cores        int
	Edges        int
	HostsPerEdge int
	LinksPerPair int
	HostRate     netsim.Rate
	CoreRate     netsim.Rate
}

// PaperFatTree returns the §6.3 configuration.
func PaperFatTree() FatTreeConfig {
	return FatTreeConfig{
		Cores:        3,
		Edges:        3,
		HostsPerEdge: 30,
		LinksPerPair: 2,
		HostRate:     netsim.Gbps(40),
		CoreRate:     netsim.Gbps(100),
	}
}

// ScaledFatTree returns the paper's fat-tree shrunk to hostsPerEdge hosts
// while preserving the 2:1 oversubscription ratio by scaling core links.
func ScaledFatTree(hostsPerEdge int) FatTreeConfig {
	cfg := PaperFatTree()
	cfg.HostsPerEdge = hostsPerEdge
	// Paper: 30 hosts × 40G = 1200G offered; 3 cores × 2 × 100G = 600G up.
	// Keep uplink capacity = half the host capacity.
	up := float64(hostsPerEdge) * cfg.HostRate.Gbps() / 2
	perLink := up / float64(cfg.Cores*cfg.LinksPerPair)
	cfg.CoreRate = netsim.Gbps(perLink)
	return cfg
}

// SmallFatTree returns a fat-tree with one link per edge-core pair at
// the paper's 2:1 oversubscription: the uplinks of an edge carry half its
// hosts' capacity. The recovery, rollout and collective experiments and
// the chaos fabrics are built from it.
func SmallFatTree(cores, edges, hostsPerEdge int, hostGbps float64) FatTreeConfig {
	up := float64(hostsPerEdge) * hostGbps / 2
	return FatTreeConfig{
		Cores:        cores,
		Edges:        edges,
		HostsPerEdge: hostsPerEdge,
		LinksPerPair: 1,
		HostRate:     netsim.Gbps(hostGbps),
		CoreRate:     netsim.Gbps(up / float64(cores)),
	}
}

// BuildFatTree constructs the fat-tree.
func BuildFatTree(engine *sim.Engine, seed int64, cfg FatTreeConfig) *FatTree {
	net := netsim.New(engine, seed)
	ft := &FatTree{
		Net:      net,
		CoreRate: cfg.CoreRate,
	}
	for i := 0; i < cfg.Cores; i++ {
		ft.Cores = append(ft.Cores, net.AddSwitch(fmt.Sprintf("core%d", i), Buffer(cfg.CoreRate)))
	}
	for e := 0; e < cfg.Edges; e++ {
		edge := net.AddSwitch(fmt.Sprintf("edge%d", e), Buffer(cfg.HostRate))
		ft.Edges = append(ft.Edges, edge)
		var hosts []*netsim.Host
		for hIdx := 0; hIdx < cfg.HostsPerEdge; hIdx++ {
			h := net.AddHost(fmt.Sprintf("h%d_%d", e, hIdx))
			down, _ := net.Connect(edge, h, cfg.HostRate, LinkDelay)
			ft.EdgeDown = append(ft.EdgeDown, down)
			hosts = append(hosts, h)
		}
		ft.Hosts = append(ft.Hosts, hosts)
		for _, core := range ft.Cores {
			for l := 0; l < cfg.LinksPerPair; l++ {
				up, downP := net.Connect(edge, core, cfg.CoreRate, LinkDelay)
				ft.EdgeUp = append(ft.EdgeUp, up)
				ft.CorePorts = append(ft.CorePorts, downP)
			}
		}
	}
	net.ComputeRoutes()
	return ft
}
