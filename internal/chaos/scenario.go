// Package chaos machine-explores the simulator's scenario space: a
// seeded generator composes random topologies, workloads, protocols and
// fault schedules into self-contained Scenario values; runtime invariant
// monitors watch every run for the pathologies the paper's robustness
// claim rules out (PFC deadlock, unbounded queues, conservation
// violations, rate-limiter escapes); and a delta-debugging shrinker
// minimizes any failing scenario into a replayable repro. One seed
// identifies everything — the topology, the flows, the faults and the
// verdict — so a nightly soak failure is a one-line reproduction.
package chaos

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"rocc/internal/adversary"
	"rocc/internal/experiments"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// Topology kinds a Scenario can request.
const (
	TopoStar            = "star"
	TopoMultiBottleneck = "multibottleneck"
	TopoFatTree         = "fattree"
)

// Fault kinds a FaultSpec can request.
const (
	FaultLink       = "link"       // probabilistic per-packet faults on one link
	FaultFlap       = "flap"       // periodic outages on one link
	FaultCNPLoss    = "cnploss"    // a switch loses its generated CNPs
	FaultCPStall    = "cpstall"    // a switch's CPs go silent in windows
	FaultLinkKill   = "linkkill"   // hard link failure with rerouting, then restore
	FaultSwitchKill = "switchkill" // hard switch failure with rerouting, then restore
)

// Fault scopes restrict link faults to one packet population. PFC pause
// frames are deliberately not targetable: losing them wedges pause state
// by construction, which would make every faulted run a false positive
// for the deadlock monitors.
const (
	ScopeData = "data"
	ScopeCNP  = "cnp"
)

// TopologySpec sizes the network. Unused fields are zero for kinds that
// do not need them (multibottleneck is fully fixed by the paper).
type TopologySpec struct {
	Kind string  `json:"kind"`
	N    int     `json:"n,omitempty"`    // star: source count
	Gbps float64 `json:"gbps,omitempty"` // star/fattree host link rate

	Cores        int `json:"cores,omitempty"`          // fattree
	Edges        int `json:"edges,omitempty"`          // fattree
	HostsPerEdge int `json:"hosts_per_edge,omitempty"` // fattree
}

// FlowSpec is one flow: host indices into the topology's creation-order
// host list, a size (-1 = persistent, stopped at scenario end), an
// optional rate cap, and a start time.
type FlowSpec struct {
	Src         int     `json:"src"`
	Dst         int     `json:"dst"`
	SizeBytes   int64   `json:"size_bytes"`
	MaxRateMbps float64 `json:"max_rate_mbps,omitempty"` // 0 = line rate
	StartNs     int64   `json:"start_ns"`
	Reliable    bool    `json:"reliable,omitempty"`

	// Protocol, when non-empty, runs this flow under a different scheme
	// than Scenario.Protocol — the mixed-fabric (incremental rollout)
	// scenario class. Empty inherits the scenario protocol.
	Protocol string `json:"protocol,omitempty"`

	// Rogue, when non-empty, wraps this flow's controller in the named
	// misbehaviour (an adversary.RogueKind: cnpdeaf, ecnblind, blast).
	// The rest of the fabric — receiver, ACK machinery, switch elements —
	// keeps running the flow's protocol honestly; only the sender's
	// reaction to feedback is subverted.
	Rogue string `json:"rogue,omitempty"`
}

// FaultSpec is one fault-schedule entry. Link and Switch index into the
// topology's deterministic link and switch enumerations.
type FaultSpec struct {
	Kind   string `json:"kind"`
	Link   int    `json:"link,omitempty"`   // link / flap
	Switch int    `json:"switch,omitempty"` // cnploss / cpstall
	Scope  string `json:"scope,omitempty"`  // link: data | cnp

	Drop      float64 `json:"drop,omitempty"`
	Corrupt   float64 `json:"corrupt,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`
	Prob      float64 `json:"prob,omitempty"` // cnploss

	PeriodNs int64 `json:"period_ns,omitempty"` // flap / cpstall cycle
	ActiveNs int64 `json:"active_ns,omitempty"` // down / stalled portion

	AtNs      int64 `json:"at_ns,omitempty"`      // linkkill / switchkill: failure time
	RestoreNs int64 `json:"restore_ns,omitempty"` // linkkill / switchkill: restore time
}

// Scenario is a self-contained, JSON-serializable description of one
// run: replaying it — same seed, same structure — reproduces the same
// packets, faults and verdict. The shrinker edits this value; nothing
// about a run lives anywhere else.
type Scenario struct {
	Seed     int64        `json:"seed"`
	Protocol string       `json:"protocol"`
	Topology TopologySpec `json:"topology"`

	DurationNs int64 `json:"duration_ns"`

	Flows  []FlowSpec  `json:"flows"`
	Faults []FaultSpec `json:"faults,omitempty"`

	// Mode is the fabric's operating mode (netsim.ParseOperatingMode
	// names). Empty is hybrid — the historical default, so every seed
	// generated before the mode dimension existed replays byte-identical.
	Mode string `json:"mode,omitempty"`

	// Defended attaches the switch-side defenses to every switch — the
	// per-flow compliance policer and the PFC storm watchdog — and
	// hardens RoCC reaction points against forged feedback (CP path
	// witness + replay rejection). On a fabric where nothing misbehaves
	// the defenses are pure observers: trajectories are byte-identical
	// with and without them (pinned by the defended-identity test).
	Defended bool `json:"defended,omitempty"`

	// Buffer overrides applied to every switch; zero keeps the
	// topology's lossless defaults. Setting PFCThresholdBytes above
	// BufferBytes is the canonical planted violation: pause can never
	// fire before the tail drops a "lossless" fabric must not take.
	PFCThresholdBytes int `json:"pfc_threshold_bytes,omitempty"`
	BufferBytes       int `json:"buffer_bytes,omitempty"`
}

// Duration returns the scenario length in engine time.
func (sc Scenario) Duration() sim.Time { return sim.Time(sc.DurationNs) }

// OperatingMode resolves the scenario's loss discipline. Call only on
// validated scenarios (unknown names degrade to hybrid).
func (sc Scenario) OperatingMode() netsim.OperatingMode {
	m, _ := netsim.ParseOperatingMode(sc.Mode)
	return m
}

// FlowProtocol resolves flow i's protocol: its own override when set,
// the scenario protocol otherwise. Call only on validated scenarios.
func (sc Scenario) FlowProtocol(i int) experiments.Protocol {
	if name := sc.Flows[i].Protocol; name != "" {
		p, _ := experiments.ParseProtocol(name)
		return p
	}
	p, _ := experiments.ParseProtocol(sc.Protocol)
	return p
}

// Protocols returns the distinct protocols the scenario runs, primary
// first and then per-flow overrides in first-appearance order.
func (sc Scenario) Protocols() []experiments.Protocol {
	primary, _ := experiments.ParseProtocol(sc.Protocol)
	out := []experiments.Protocol{primary}
	seen := map[experiments.Protocol]bool{primary: true}
	for i := range sc.Flows {
		if sc.Flows[i].Protocol == "" {
			continue
		}
		p := sc.FlowProtocol(i)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// RogueCount returns how many of the scenario's flows are rogue senders.
func (sc Scenario) RogueCount() int {
	n := 0
	for i := range sc.Flows {
		if sc.Flows[i].Rogue != "" {
			n++
		}
	}
	return n
}

// hostCount returns how many hosts the topology will create.
func (t TopologySpec) hostCount() int {
	switch t.Kind {
	case TopoStar:
		return t.N + 1
	case TopoMultiBottleneck:
		return 11
	case TopoFatTree:
		return t.Edges * t.HostsPerEdge
	}
	return 0
}

// linkCount returns how many links the topology will create (see
// enumerateLinks; pinned by TestLinkEnumerationMatchesSpec).
func (t TopologySpec) linkCount() int {
	switch t.Kind {
	case TopoStar:
		return t.N + 1
	case TopoMultiBottleneck:
		return 12
	case TopoFatTree:
		return t.Edges*t.HostsPerEdge + t.Edges*t.Cores
	}
	return 0
}

// switchCount returns how many switches the topology will create.
func (t TopologySpec) switchCount() int {
	switch t.Kind {
	case TopoStar:
		return 1
	case TopoMultiBottleneck:
		return 2
	case TopoFatTree:
		return t.Cores + t.Edges
	}
	return 0
}

// minLinkGbps is the slowest link a scenario may build. RoCC's
// congestion point is the one protocol configuration with a rate floor:
// its line rate must exceed its 100 Mb/s minimum fair rate
// (core.CPConfig.Validate), so the bound is that floor plus one 10 Mb/s
// rate step (ΔF). The other six protocols take any positive rate.
const minLinkGbps = 0.11

// hostGbps returns the star and fat-tree host link rate; 0 means 40.
func (t TopologySpec) hostGbps() float64 { return cmp.Or(t.Gbps, 40) }

// fatTree returns the fat-tree configuration the spec builds.
func (t TopologySpec) fatTree() topology.FatTreeConfig {
	return topology.SmallFatTree(t.Cores, t.Edges, t.HostsPerEdge, t.hostGbps())
}

func (t TopologySpec) validate() error {
	if t.Gbps < 0 {
		return fmt.Errorf("chaos: negative link rate %v Gb/s", t.Gbps)
	}
	var links []netsim.Rate // each link rate the fabric builds
	switch t.Kind {
	case TopoStar:
		if t.N < 1 {
			return fmt.Errorf("chaos: star needs at least 1 source, got %d", t.N)
		}
		links = []netsim.Rate{netsim.Gbps(t.hostGbps())}
	case TopoMultiBottleneck:
		return nil // fully fixed by Fig. 10
	case TopoFatTree:
		if t.Cores < 1 || t.Edges < 2 || t.HostsPerEdge < 1 {
			return fmt.Errorf("chaos: fat-tree needs cores>=1, edges>=2, hosts>=1, got %d/%d/%d",
				t.Cores, t.Edges, t.HostsPerEdge)
		}
		ft := t.fatTree()
		links = []netsim.Rate{ft.HostRate, ft.CoreRate}
	default:
		return fmt.Errorf("chaos: unknown topology kind %q", t.Kind)
	}
	for _, r := range links {
		g := r.Gbps()
		if !(g >= minLinkGbps) {
			return fmt.Errorf("chaos: a %v Gb/s link is below %v Gb/s, the slowest every protocol accepts", g, minLinkGbps)
		}
		if math.IsInf(g, 1) {
			// A packet would serialize in no time: one instant never ends.
			return fmt.Errorf("chaos: link rate %v Gb/s overflows", t.Gbps)
		}
	}
	return nil
}

// Validate rejects scenarios that cannot be built or run: it is the
// non-crashing gate the soak worker pool and repro loader rely on, the
// same way faults.LinkConfig.Validate guards the injector.
func (sc Scenario) Validate() error {
	if _, err := experiments.ParseProtocol(sc.Protocol); err != nil {
		return err
	}
	if _, err := netsim.ParseOperatingMode(sc.Mode); err != nil {
		return err
	}
	if err := sc.Topology.validate(); err != nil {
		return err
	}
	if sc.DurationNs <= 0 {
		return fmt.Errorf("chaos: non-positive duration %d", sc.DurationNs)
	}
	hosts := sc.Topology.hostCount()
	for i, f := range sc.Flows {
		if f.Src < 0 || f.Src >= hosts || f.Dst < 0 || f.Dst >= hosts {
			return fmt.Errorf("chaos: flow %d references host out of [0,%d)", i, hosts)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("chaos: flow %d has src == dst", i)
		}
		if f.StartNs < 0 || f.StartNs >= sc.DurationNs {
			return fmt.Errorf("chaos: flow %d starts at %d, outside [0,%d)", i, f.StartNs, sc.DurationNs)
		}
		if f.SizeBytes == 0 || f.SizeBytes < -1 {
			return fmt.Errorf("chaos: flow %d has size %d (want positive or -1)", i, f.SizeBytes)
		}
		if f.MaxRateMbps < 0 {
			return fmt.Errorf("chaos: flow %d has negative rate cap", i)
		}
		if f.Protocol != "" {
			if _, err := experiments.ParseProtocol(f.Protocol); err != nil {
				return fmt.Errorf("chaos: flow %d: %w", i, err)
			}
		}
		if f.Rogue != "" {
			if _, err := adversary.ParseRogueKind(f.Rogue); err != nil {
				return fmt.Errorf("chaos: flow %d: %w", i, err)
			}
			if sc.OperatingMode() == netsim.ModePFCOnly {
				return fmt.Errorf("chaos: flow %d is rogue but mode %q runs no controller to subvert", i, sc.Mode)
			}
		}
	}
	links, switches := sc.Topology.linkCount(), sc.Topology.switchCount()
	linkFaulted := make(map[int]bool)
	kills, flaps := 0, 0
	for i, f := range sc.Faults {
		switch f.Kind {
		case FaultFlap:
			flaps++
		case FaultLinkKill, FaultSwitchKill:
			kills++
		}
		if kills > 1 {
			return fmt.Errorf("chaos: fault %d is a second topology kill (one per scenario)", i)
		}
		if kills > 0 && flaps > 0 {
			return fmt.Errorf("chaos: fault %d mixes a flap with a topology kill (link-state conflict)", i)
		}
	}
	for i, f := range sc.Faults {
		switch f.Kind {
		case FaultLink:
			if f.Link < 0 || f.Link >= links {
				return fmt.Errorf("chaos: fault %d references link out of [0,%d)", i, links)
			}
			if linkFaulted[f.Link] {
				return fmt.Errorf("chaos: fault %d duplicates a link fault on link %d", i, f.Link)
			}
			linkFaulted[f.Link] = true
			if f.Scope != ScopeData && f.Scope != ScopeCNP {
				return fmt.Errorf("chaos: fault %d has scope %q (want %q or %q)", i, f.Scope, ScopeData, ScopeCNP)
			}
			cfg := faults.LinkConfig{Drop: f.Drop, Corrupt: f.Corrupt, Duplicate: f.Duplicate, Reorder: f.Reorder}
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		case FaultFlap:
			if f.Link < 0 || f.Link >= links {
				return fmt.Errorf("chaos: fault %d references link out of [0,%d)", i, links)
			}
			if err := faults.ValidateFlap(sim.Time(f.PeriodNs), sim.Time(f.ActiveNs)); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		case FaultCNPLoss:
			if f.Switch < 0 || f.Switch >= switches {
				return fmt.Errorf("chaos: fault %d references switch out of [0,%d)", i, switches)
			}
			if err := faults.ValidateProb(f.Prob); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		case FaultCPStall:
			if f.Switch < 0 || f.Switch >= switches {
				return fmt.Errorf("chaos: fault %d references switch out of [0,%d)", i, switches)
			}
			if err := faults.ValidateStall(sim.Time(f.PeriodNs), sim.Time(f.ActiveNs)); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		case FaultLinkKill, FaultSwitchKill:
			if f.Kind == FaultLinkKill {
				if f.Link < 0 || f.Link >= links {
					return fmt.Errorf("chaos: fault %d references link out of [0,%d)", i, links)
				}
			} else if f.Switch < 0 || f.Switch >= switches {
				return fmt.Errorf("chaos: fault %d references switch out of [0,%d)", i, switches)
			}
			// Scenario kills must restore inside the run: the end-of-run
			// invariants (blackhole clearance, recovery, drain) are only
			// well-posed on a healed fabric.
			if f.RestoreNs <= 0 || f.RestoreNs > sc.DurationNs {
				return fmt.Errorf("chaos: fault %d must restore inside (0,%d]", i, sc.DurationNs)
			}
			if err := faults.ValidateKill(sim.Time(f.AtNs), sim.Time(f.RestoreNs)); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		default:
			return fmt.Errorf("chaos: fault %d has unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// Save writes the scenario as indented JSON — the repro config format.
func (sc Scenario) Save(path string) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a scenario previously written by Save.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	return decode(data)
}

// decode parses and validates a repro config.
func decode(data []byte) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return Scenario{}, err
	}
	return sc, sc.Validate()
}

// fabric is a built topology plus the deterministic enumerations flow
// and fault specs index into.
type fabric struct {
	net   *netsim.Network
	hosts []*netsim.Host
	links [][2]*netsim.Port
	star  *topology.Star    // non-nil for TopoStar
	ft    *topology.FatTree // non-nil for TopoFatTree (pod-aligned sharding)
}

// buildFabric materializes the topology on an engine. Scenario.Seed
// seeds the network's workload RNG, so the same spec always yields the
// same fabric and the same downstream random draws.
func (sc Scenario) buildFabric(engine *sim.Engine) *fabric {
	t := sc.Topology
	f := &fabric{}
	switch t.Kind {
	case TopoStar:
		st := topology.BuildStar(engine, sc.Seed, t.N, netsim.Gbps(t.hostGbps()))
		f.net, f.star = st.Net, st
	case TopoMultiBottleneck:
		f.net = topology.BuildMultiBottleneck(engine, sc.Seed).Net
	case TopoFatTree:
		ft := topology.BuildFatTree(engine, sc.Seed, t.fatTree())
		f.net, f.ft = ft.Net, ft
	default:
		panic("chaos: buildFabric on unvalidated scenario")
	}
	// Planted buffer overrides. The operating mode is applied after them
	// by the run assembly and derives from the (possibly overridden)
	// thresholds; hybrid rewrites nothing, so planted violations survive
	// as planted.
	if sc.PFCThresholdBytes > 0 || sc.BufferBytes > 0 {
		for _, s := range f.net.Switches() {
			if sc.PFCThresholdBytes > 0 {
				s.Buffer.PFCThreshold = sc.PFCThresholdBytes
				s.Buffer.PFCResume = 0
			}
			if sc.BufferBytes > 0 {
				s.Buffer.TotalBytes = sc.BufferBytes
			}
		}
	}
	f.hosts = f.net.Hosts()
	f.links = enumerateLinks(f.net)
	return f
}

// enumerateLinks lists every link exactly once in a deterministic order:
// nodes by creation id, each node's ports by index, a link owned by the
// first endpoint that reaches it. FaultSpec.Link indexes this list.
func enumerateLinks(net *netsim.Network) [][2]*netsim.Port {
	var nodes []netsim.Node
	for _, h := range net.Hosts() {
		nodes = append(nodes, h)
	}
	for _, s := range net.Switches() {
		nodes = append(nodes, s)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	seen := make(map[*netsim.Port]bool)
	var links [][2]*netsim.Port
	for _, n := range nodes {
		for _, p := range n.Ports() {
			if seen[p] {
				continue
			}
			peer := p.PeerNode.Ports()[p.PeerPort]
			seen[p], seen[peer] = true, true
			links = append(links, [2]*netsim.Port{p, peer})
		}
	}
	return links
}

// scopeMatch maps a FaultSpec scope onto a faults packet matcher.
func scopeMatch(scope string) func(*netsim.Packet) bool {
	if scope == ScopeCNP {
		return faults.MatchCNPs
	}
	return faults.MatchData
}
