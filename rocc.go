// Package rocc is a from-scratch Go implementation of RoCC — "RoCC:
// Robust Congestion Control for RDMA" (Taheri et al., CoNEXT 2020) —
// together with everything needed to reproduce the paper's evaluation:
// a packet-level datacenter network simulator, the DCQCN, DCQCN+PI,
// HPCC, TIMELY and QCN baselines, the §5 control-theoretic stability
// analysis, the §6 workloads and topologies, and a real-socket testbed
// standing in for the paper's DPDK deployment.
//
// This package is the public facade: it re-exports the library's main
// types so downstream users program against a single import path. It is
// the only importable surface of the module; README.md ("Public API")
// states what it supports and what counts as a breaking change.
//
// # Quick start
//
//	engine := rocc.NewEngine()
//	star := rocc.BuildStar(engine, 1, 4, rocc.Gbps(40))
//	mix := rocc.NewMix(star.Net, 0)
//	mix.EnablePort(rocc.ProtoRoCC, star.Bottleneck)
//	for _, src := range star.Sources {
//		mix.StartFlow(rocc.ProtoRoCC, src, star.Dst, -1, rocc.Gbps(36))
//	}
//	engine.RunUntil(20 * rocc.Millisecond)
//
// See examples/quickstart for a complete program and internal packages'
// docs for the algorithm-level API.
package rocc

import (
	"rocc/internal/control"
	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

// Simulation engine and virtual time.
type (
	// Engine is the discrete-event simulator driving every experiment.
	Engine = sim.Engine
	// Time is a virtual-time instant or duration in nanoseconds.
	Time = sim.Time
)

// Duration units for Time.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns an empty discrete-event engine.
func NewEngine() *Engine { return sim.New() }

// Network model.
type (
	// Network is the simulated fabric: hosts, switches, links, flows.
	Network = netsim.Network
	// Host is an RDMA endpoint with per-flow rate limiting.
	Host = netsim.Host
	// Switch is a shared-buffer switch with ECMP and PFC.
	Switch = netsim.Switch
	// Port is one link endpoint with priority queues.
	Port = netsim.Port
	// Flow is a unidirectional message transfer.
	Flow = netsim.Flow
	// FlowID identifies a flow within a Network.
	FlowID = netsim.FlowID
	// FlowConfig parameterizes StartFlow.
	FlowConfig = netsim.FlowConfig
	// BufferConfig describes switch buffering and PFC.
	BufferConfig = netsim.BufferConfig
	// Rate is bits per second.
	Rate = netsim.Rate
	// FlowCC is the per-flow congestion-controller interface.
	FlowCC = netsim.FlowCC
	// PortCC is the switch-side congestion-control attachment.
	PortCC = netsim.PortCC
)

// Gbps returns a Rate of g gigabits per second.
func Gbps(g float64) Rate { return netsim.Gbps(g) }

// Mbps returns a Rate of m megabits per second.
func Mbps(m float64) Rate { return netsim.Mbps(m) }

// NewNetwork creates an empty network on the engine with a seeded RNG.
func NewNetwork(engine *Engine, seed int64) *Network { return netsim.New(engine, seed) }

// RoCC algorithms (the paper's contribution).
type (
	// CPConfig holds the Alg. 1 congestion-point parameters.
	CPConfig = core.CPConfig
	// CP is the fair-rate calculator for one egress queue (Alg. 1).
	CP = core.CP
	// RPConfig holds the Alg. 2 reaction-point parameters.
	RPConfig = core.RPConfig
	// RP is the per-flow reaction point (Alg. 2).
	RP = core.RP
	// CPKey identifies a congestion point in CNP acceptance.
	CPKey = core.CPKey
	// CPOptions configures a simulated RoCC congestion point.
	CPOptions = roccnet.CPOptions
	// RPOptions configures a simulated RoCC reaction point.
	RPOptions = roccnet.RPOptions
	// SwitchCP is a RoCC congestion point attached to a switch port.
	SwitchCP = roccnet.CP
)

// NewCP builds a congestion point from an Alg. 1 configuration.
func NewCP(cfg CPConfig) *CP { return core.NewCP(cfg) }

// NewRP builds a reaction point from an Alg. 2 configuration.
func NewRP(cfg RPConfig) *RP { return core.NewRP(cfg) }

// CPConfig40G returns the paper's §6 parameters for 40 Gb/s links.
func CPConfig40G() CPConfig { return core.CPConfig40G() }

// CPConfig100G returns the paper's §6 parameters for 100 Gb/s links.
func CPConfig100G() CPConfig { return core.CPConfig100G() }

// CPConfigForGbps derives parameters for an arbitrary link bandwidth.
func CPConfigForGbps(gbps float64) CPConfig { return core.CPConfigForGbps(gbps) }

// EnableRoCC attaches a RoCC congestion point to a switch egress port.
func EnableRoCC(net *Network, sw *Switch, port *Port, opts CPOptions) *SwitchCP {
	return roccnet.Attach(net, sw, port, opts)
}

// NewRoCCFlowCC builds the RoCC reaction point as a flow controller.
func NewRoCCFlowCC(host *Host, opts RPOptions) FlowCC {
	return roccnet.NewFlowCC(host, opts)
}

// Topologies (§6).
type (
	// Star is the single-bottleneck micro-benchmark topology.
	Star = topology.Star
	// MultiBottleneck is the Fig. 10 topology.
	MultiBottleneck = topology.MultiBottleneck
	// Asymmetric is the §6.1 asymmetric topology.
	Asymmetric = topology.Asymmetric
	// FatTree is the §6.3 two-level fat-tree.
	FatTree = topology.FatTree
	// FatTreeConfig sizes a fat-tree.
	FatTreeConfig = topology.FatTreeConfig
)

// BuildStar constructs an N-source single-bottleneck star.
func BuildStar(engine *Engine, seed int64, n int, rate Rate) *Star {
	return topology.BuildStar(engine, seed, n, rate)
}

// BuildMultiBottleneck constructs the Fig. 10 topology.
func BuildMultiBottleneck(engine *Engine, seed int64) *MultiBottleneck {
	return topology.BuildMultiBottleneck(engine, seed)
}

// BuildAsymmetric constructs the §6.1 asymmetric topology.
func BuildAsymmetric(engine *Engine, seed int64) *Asymmetric {
	return topology.BuildAsymmetric(engine, seed)
}

// BuildFatTree constructs a §6.3 fat-tree.
func BuildFatTree(engine *Engine, seed int64, cfg FatTreeConfig) *FatTree {
	return topology.BuildFatTree(engine, seed, cfg)
}

// PaperFatTree returns the paper's 3×3×30 fat-tree configuration.
func PaperFatTree() FatTreeConfig { return topology.PaperFatTree() }

// Protocols and their wiring.
type (
	// Protocol names a congestion-control scheme under test.
	Protocol = experiments.Protocol
	// Mix wires congestion control into a built network: each scheme's
	// switch and receiver elements, and a protocol per flow.
	Mix = experiments.Mix
)

// The protocols the paper evaluates.
const (
	ProtoRoCC    = experiments.ProtoRoCC
	ProtoDCQCN   = experiments.ProtoDCQCN
	ProtoDCQCNPI = experiments.ProtoDCQCNPI
	ProtoHPCC    = experiments.ProtoHPCC
	ProtoTIMELY  = experiments.ProtoTIMELY
	ProtoQCN     = experiments.ProtoQCN
	ProtoDCTCP   = experiments.ProtoDCTCP
)

// NewMix builds the congestion-control composer for a network: wire
// ports and receivers, then start flows, naming a protocol each time.
// baseRTT parameterizes window-based protocols; zero uses a 10 µs
// default.
func NewMix(net *Network, baseRTT Time) *Mix {
	return experiments.NewMix(net, baseRTT)
}

// CDF is a flow-size distribution (§6.3 workloads).
type CDF = workload.CDF

// WebSearch returns the throughput-heavy flow-size distribution.
func WebSearch() *CDF { return workload.WebSearch() }

// FBHadoop returns the latency-sensitive flow-size distribution.
func FBHadoop() *CDF { return workload.FBHadoop() }

// Stability analysis (§5).
type (
	// ControlSystem is the linearized RoCC loop for margin analysis.
	ControlSystem = control.System
)
