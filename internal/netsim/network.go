package netsim

import (
	"fmt"
	"slices"

	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// Node is a network element: a Host or a Switch.
type Node interface {
	ID() NodeID
	Ports() []*Port
	Arrive(pkt *Packet, inPort int)
}

// Network owns the topology, the flow registry and global configuration.
type Network struct {
	Engine *sim.Engine
	Rand   *sim.Rand

	nodes    []Node
	hosts    []*Host
	switches []*Switch

	// flows is the flow registry, a window over the FlowID space: flows[i]
	// is flow flowBase+i, nil once removed. FlowIDs are dense and never
	// reused, so an index replaces a map. flowHead is the first live
	// entry: the removed prefix before it is dropped when the window next
	// has to grow. Only global-lane code writes the registry (StartFlow,
	// flowRemove — between windows); shard code reads it through Flow
	// inside windows, the discipline a map needed too.
	flows       []*Flow
	flowBase    FlowID
	flowHead    int
	activeFlows int
	nextFlow    FlowID

	// OnFlowDone is invoked when a flow's last byte reaches its receiver.
	OnFlowDone func(*Flow)

	// DefaultRPDelay is applied to hosts created after it is set (15 µs
	// per §6). It can be overridden per host.
	DefaultRPDelay sim.Time

	// RetxBytesTotal accumulates go-back-N retransmitted bytes across all
	// flows, including completed ones (App. A.2 reporting).
	RetxBytesTotal int64

	// PauseStormSpan is the completed-pause duration at or above which a
	// pause interval counts as a pause storm (netsim.pfc.pause_storm).
	// Healthy PFC pauses in the paper's fabrics last microseconds; a
	// millisecond-scale pause means an upstream queue is wedged.
	PauseStormSpan sim.Time

	// INTHopCap, when positive, gives every pool-fresh packet an INT
	// record whose INT and EchoINT stacks hold this many hops, so per-hop
	// telemetry stamping never grows them. Set it to the topology diameter
	// (the experiment stack uses 8 for HPCC); zero leaves the record
	// unallocated until first use.
	INTHopCap int

	// ReconvergeDelay is how long after a FailLink/FailSwitch/Restore
	// event the routing tables are recomputed (the control plane's
	// detection + reconvergence time). Zero selects
	// DefaultReconvergeDelay. Packets in the window that reach a switch
	// with no surviving ECMP entry blackhole deterministically.
	ReconvergeDelay sim.Time

	// MaxHops bounds how many switches a packet may traverse before it is
	// dropped as looping (a TTL). Transient routing states can only loop
	// while tables are inconsistent; the cap turns that into a
	// deterministic terminal drop. Zero selects DefaultMaxHops.
	MaxHops int

	// routesDynamic flips on at the first topology event. Before that, a
	// missing route is a wiring bug and panics; after, it is a blackhole
	// window and packets are dropped with a terminal pool release.
	routesDynamic bool

	// reconverges counts route recomputations; stalePauseDrops counts PFC
	// frames discarded because they predate their link's re-establishment;
	// watchdogPauseIgnores counts PFC frames discarded on ports whose
	// lossless class a storm watchdog disabled.
	reconverges          uint64
	stalePauseDrops      uint64
	watchdogPauseIgnores uint64

	// group is the engine group the network runs on: one shard from New,
	// K after EnableSharding (shard.go). pools recycles Packet structs,
	// one shard-local free list per shard (pool.go has the lifecycle
	// contract); shardSt carries each shard's deferred flow completions.
	group   *sim.Group
	pools   []packetPool
	shardSt []shardState

	// Barrier-drain scratch (shard.go), reused so steady-state barriers
	// do not allocate.
	doneScratch   []*Flow
	retireScratch []retireReq

	// portSeq numbers ports in creation order; every directed link's
	// arrival lane is keyed by it.
	portSeq uint64

	// longestPause is the longest completed PFC pause interval seen so
	// far; LongestPauseSpan extends it with in-progress pauses so a true
	// deadlock (a pause that never completes) is still visible.
	longestPause sim.Time
	pauseStorms  uint64

	// Telemetry attachments (see SetTelemetry). All nil when disabled;
	// the instruments are nil-safe so hot paths never branch on these.
	reg *telemetry.Registry
	rec *telemetry.Recorder
	tm  netMetrics
}

// New creates an empty network with engine as its global lane: timers,
// monitors and workload arrivals scheduled on engine run at window
// barriers, and engine.Run/RunUntil/Step drive the whole network. The
// nodes themselves live on a one-shard sim.Group wrapped around engine
// until EnableSharding re-cuts them.
func New(engine *sim.Engine, seed int64) *Network {
	n := &Network{
		Engine:         engine,
		Rand:           sim.NewRand(seed),
		flowBase:       1,
		DefaultRPDelay: 15 * sim.Microsecond,
		PauseStormSpan: sim.Millisecond,
	}
	n.adopt(sim.NewGroup(engine, 1, DefaultLookahead))
	return n
}

// AddHost creates a host.
func (n *Network) AddHost(name string) *Host {
	h := &Host{net: n, id: NodeID(len(n.nodes)), Name: name, RPDelay: n.DefaultRPDelay, eng: n.group.Shard(0)}
	n.nodes = append(n.nodes, h)
	n.hosts = append(n.hosts, h)
	return h
}

// AddSwitch creates a switch with the given buffer configuration.
func (n *Network) AddSwitch(name string, buf BufferConfig) *Switch {
	s := &Switch{
		net:    n,
		id:     NodeID(len(n.nodes)),
		Name:   name,
		Buffer: buf,
		eng:    n.group.Shard(0),
	}
	n.nodes = append(n.nodes, s)
	n.switches = append(n.switches, s)
	return s
}

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Flow returns a registered flow, or nil after it completed (and for IDs
// never issued).
func (n *Network) Flow(id FlowID) *Flow {
	if i := uint64(id - n.flowBase); i < uint64(len(n.flows)) {
		return n.flows[i]
	}
	return nil
}

// Connect links two nodes with a full-duplex link of the given rate and
// propagation delay, returning the two port ends (a's, then b's).
func (n *Network) Connect(a, b Node, rate Rate, delay sim.Time) (*Port, *Port) {
	pa, pb := n.newPort(a, b, rate, delay), n.newPort(b, a, rate, delay)
	n.attach(a, pa)
	n.attach(b, pb)
	pa.PeerNode, pa.PeerPort = b, pb.Index
	pb.PeerNode, pb.PeerPort = a, pa.Index
	return pa, pb
}

// newPort builds owner's end of a link to peer, homed on owner's shard.
func (n *Network) newPort(owner, peer Node, rate Rate, delay sim.Time) *Port {
	sh := nodeShard(owner)
	p := &Port{
		net: n, owner: owner, LinkRate: rate, PropDelay: delay,
		eng: n.group.Shard(sh), shard: sh,
		peerShard: nodeShard(peer), peerCtx: localLane(peer.ID()),
		arrLane: laneArrBase | n.portSeq,
	}
	n.portSeq++
	return p
}

func (n *Network) attach(node Node, p *Port) {
	switch v := node.(type) {
	case *Host:
		if v.nic[0] != nil {
			panic("netsim: host " + v.Name + " already has a NIC port")
		}
		p.Index = 0
		p.Refill = v.refill
		v.nic[0] = p
	case *Switch:
		v.addPort(p)
	default:
		panic(fmt.Sprintf("netsim: unknown node type %T", node))
	}
}

// ComputeRoutes builds shortest-path ECMP routing tables for every host
// destination, over the live links only (downed links and failed
// switches carry no routes). Call after the topology is complete; the
// reconvergence machinery (topofail.go) calls it again after every
// FailLink/FailSwitch/Restore window.
//
// A host has one link, so every path to it runs through the switch its
// NIC attaches to: one search from that switch gives every other
// switch's next hops toward all of the switch's hosts, and the switch
// itself routes each host over its own port. A host whose NIC end is
// down, or whose attach switch has failed, gets no routes: a search from
// the host would cross that one link first, and so reach no switch.
func (n *Network) ComputeRoutes() {
	// One block holds every switch's per-destination index, and each
	// switch interns its few distinct port sets, so a table costs a few
	// allocations however many destinations it serves.
	nodes := len(n.nodes)
	block := make([]int32, len(n.switches)*nodes)
	sets := make([]choiceSets, len(n.switches))
	for i, s := range n.switches {
		s.route = block[i*nodes : (i+1)*nodes : (i+1)*nodes]
	}
	// NodeIDs are dense, so one distance slice and one queue (a node is
	// queued at most once) serve every search.
	dist := make([]int32, nodes)
	queue := make([]Node, 0, nodes)
	var next []int32
	// Sets are interned host by host, in host order, as a search per host
	// would: the first host behind an attach switch interns that search's
	// sets, and later hosts behind it reuse their numbers.
	type attachRoutes struct {
		self int     // the attach switch's index in n.switches
		num  []int32 // per switch, its set toward the attach switch's hosts
	}
	byAttach := make(map[*Switch]*attachRoutes)
	for _, dst := range n.hosts {
		sw := dst.attachSwitch()
		if sw == nil {
			continue
		}
		ar := byAttach[sw]
		if ar == nil {
			ar = &attachRoutes{num: make([]int32, len(n.switches))}
			byAttach[sw] = ar
			n.bfs(sw, dist, queue)
			for i, s := range n.switches {
				if s == sw {
					ar.self = i
				} else if next = s.nextHops(dist, next[:0]); len(next) > 0 {
					ar.num[i] = sets[i].intern(next)
				}
			}
		}
		for i, s := range n.switches {
			if k := ar.num[i]; k > 0 {
				s.route[dst.id] = k
			}
		}
		if port := dst.nic[0].PeerPort; !sw.ports[port].linkDown {
			next = append(next[:0], int32(port))
			sw.route[dst.id] = sets[ar.self].intern(next)
		}
	}
	for i, s := range n.switches {
		s.routeSets = sets[i].table()
	}
}

// attachSwitch returns the live switch h's NIC links to, or nil when no
// switch can reach h: no NIC, a NIC end that is down, a failed switch,
// or a peer that is not a switch (a host, which has no other link).
func (h *Host) attachSwitch() *Switch {
	p := h.nic[0]
	if p == nil || p.linkDown {
		return nil
	}
	if sw, ok := p.PeerNode.(*Switch); ok && !sw.failed {
		return sw
	}
	return nil
}

// nextHops appends to next the live ports of s whose peer is one hop
// nearer the search root than s is, by dist. A failed switch, the root
// and switches the search did not reach have none.
func (s *Switch) nextHops(dist []int32, next []int32) []int32 {
	ds := dist[s.id]
	if s.failed || ds <= 0 {
		return next
	}
	for pi, p := range s.ports {
		if !p.linkDown && dist[p.PeerNode.ID()] == ds-1 {
			next = append(next, int32(pi))
		}
	}
	return next
}

// choiceSets collects one switch's distinct equal-cost port sets while
// ComputeRoutes runs: set k (from 1; 0 is the empty set) is
// ports[end[k-2]:end[k-1]].
type choiceSets struct {
	ports []int32
	end   []int32
	last  int32 // the set interned most recently: the next intern's likeliest
}

// intern returns the number of the set equal to next, adding it if new.
func (c *choiceSets) intern(next []int32) int32 {
	if c.last > 0 && slices.Equal(c.set(c.last), next) {
		return c.last
	}
	for k := int32(1); k <= int32(len(c.end)); k++ {
		if slices.Equal(c.set(k), next) {
			c.last = k
			return k
		}
	}
	c.ports = append(c.ports, next...)
	c.end = append(c.end, int32(len(c.ports)))
	c.last = int32(len(c.end))
	return c.last
}

// set returns set k, capped at its own end: the sets share one backing
// array, and invalidatePort filters them in place.
func (c *choiceSets) set(k int32) []int32 {
	start := int32(0)
	if k > 1 {
		start = c.end[k-2]
	}
	return c.ports[start:c.end[k-1]:c.end[k-1]]
}

// table returns the sets indexed by number, set 0 empty.
func (c *choiceSets) table() [][]int32 {
	out := make([][]int32, len(c.end)+1)
	for k := 1; k < len(out); k++ {
		out[k] = c.set(int32(k))
	}
	return out
}

// bfs fills dist with the hop distance from every node to dst over live
// links, -1 where dst is unreachable. queue is empty scratch space.
func (n *Network) bfs(dst Node, dist []int32, queue []Node) {
	for i := range dist {
		dist[i] = -1
	}
	dist[dst.ID()] = 0
	queue = append(queue, dst)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, p := range cur.Ports() {
			peer := p.PeerNode
			if peer == nil || p.linkDown {
				continue
			}
			if s, ok := peer.(*Switch); ok && s.failed {
				continue
			}
			if dist[peer.ID()] < 0 {
				dist[peer.ID()] = dist[cur.ID()] + 1
				queue = append(queue, peer)
			}
		}
	}
}

// StartFlow begins a flow from src to dst with the given configuration.
func (n *Network) StartFlow(src, dst *Host, cfg FlowConfig) *Flow {
	if src == dst {
		panic("netsim: flow source equals destination")
	}
	n.nextFlow++
	cc := cfg.CC
	if cc == nil {
		cc = NoCC{}
	}
	rto := cfg.RTO
	if rto == 0 {
		rto = sim.Millisecond
	}
	ackEvery := cfg.AckEvery
	if cfg.Reliable && ackEvery == 0 {
		ackEvery = 1
	}
	f := &Flow{
		ID:          n.nextFlow,
		net:         n,
		src:         src,
		dst:         dst,
		Size:        cfg.Size,
		MaxRate:     cfg.MaxRate,
		CC:          cc,
		Reliable:    cfg.Reliable,
		AckEvery:    ackEvery,
		RTO:         rto,
		ExtraHeader: cfg.ExtraHeader,
		scheme:      cfg.Scheme,
		StartTime:   n.Engine.Now(),
	}
	if cfg.Reliable {
		f.gbn = &gbnState{}
	}
	if cfg.Size == 0 {
		src.mayRemove = true // nothing to send: removable at once
	}
	n.register(f)
	src.addFlow(f)
	return f
}

// register appends f, the newest flow, to the registry window. When the
// window is full and at least half of it is the removed prefix, the live
// part moves down instead of the window growing, so steady churn
// allocates nothing.
func (n *Network) register(f *Flow) {
	if h := n.flowHead; len(n.flows) == cap(n.flows) && h > 0 && 2*h >= len(n.flows) {
		live := copy(n.flows, n.flows[h:])
		clear(n.flows[live:])
		n.flows = n.flows[:live]
		n.flowBase += FlowID(h)
		n.flowHead = 0
	}
	n.flows = append(n.flows, f)
	n.activeFlows++
}

// removeFlowLater tears down a completed flow's controller timers and
// schedules its removal from the registry after a grace period, so ACKs
// and CNPs still in flight (up to a few RTTs behind the last data byte)
// reach the flow instead of being dropped.
func (n *Network) removeFlowLater(f *Flow) {
	if s, ok := f.CC.(interface{ Stop() }); ok {
		s.Stop()
	}
	n.Engine.AfterCall(removeGrace, flowRemove, n, f)
}

// flowRemove drops a completed flow from the registry once its grace
// period is over; scheduled via AfterCall so that a flow's completion
// allocates no closure.
func flowRemove(a, b any) {
	n, f := a.(*Network), b.(*Flow)
	if n.Flow(f.ID) == f {
		n.flows[f.ID-n.flowBase] = nil
		n.activeFlows--
		for n.flowHead < len(n.flows) && n.flows[n.flowHead] == nil {
			n.flowHead++
		}
	}
}

// removeGrace is how long a completed flow stays addressable for late
// control packets.
const removeGrace = 200 * sim.Microsecond

// ActiveFlowCount returns the number of registered (incomplete) flows.
func (n *Network) ActiveFlowCount() int { return n.activeFlows }

// sumSwitches totals one per-switch count over the fabric.
func sumSwitches[T int | uint64](n *Network, count func(*Switch) T) T {
	var total T
	for _, s := range n.switches {
		total += count(s)
	}
	return total
}

// sumPorts totals one per-port count over every switch port and host NIC.
func sumPorts(n *Network, count func(*Port) uint64) uint64 {
	total := uint64(0)
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			total += count(p)
		}
	}
	return total
}

// TotalPFCFrames sums Xoff pause frames across all switches.
func (n *Network) TotalPFCFrames() int {
	return sumSwitches(n, func(s *Switch) int { return s.PauseFrames })
}

// LongestPauseSpan returns the longest PFC pause interval observed so
// far on any port, including pauses still in progress — so a pause-wait
// deadlock, whose pauses never complete, is as visible as a long pause
// that did. This is the signal the chaos deadlock monitor and the
// netsim.pfc.longest_pause_span_ns gauge share.
func (n *Network) LongestPauseSpan() sim.Time {
	longest := n.longestPause
	now := n.Engine.Now()
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			if p.paused {
				if span := now - p.pausedAt; span > longest {
					longest = span
				}
			}
		}
	}
	return longest
}

// PauseStorms returns how many completed pause intervals reached
// PauseStormSpan.
func (n *Network) PauseStorms() uint64 { return n.pauseStorms }

// TotalDrops sums tail drops across all switches.
func (n *Network) TotalDrops() int {
	return sumSwitches(n, func(s *Switch) int { return s.Drops })
}

// BlackholeDrops sums packets dropped at switches that had no surviving
// route for the destination (topology-failure windows).
func (n *Network) BlackholeDrops() uint64 {
	return sumSwitches(n, func(s *Switch) uint64 { return s.BlackholeDrops })
}

// LoopDrops sums packets dropped for exceeding the hop cap.
func (n *Network) LoopDrops() uint64 {
	return sumSwitches(n, func(s *Switch) uint64 { return s.LoopDrops })
}

// LinkDownDrops sums packets lost serializing into downed links, across
// every switch port and host NIC.
func (n *Network) LinkDownDrops() uint64 {
	return sumPorts(n, func(p *Port) uint64 { return p.LinkDownDrops })
}

// PolicedDrops sums data packets denied by switch Police hooks.
func (n *Network) PolicedDrops() int {
	return sumSwitches(n, func(s *Switch) int { return s.PolicedDrops })
}

// WatchdogDrops sums data packets discarded on storm-disabled egress
// ports (including stuck-queue flushes at watchdog trips).
func (n *Network) WatchdogDrops() int {
	return sumSwitches(n, func(s *Switch) int { return s.WatchdogDrops })
}

// WatchdogPauseIgnores returns how many PFC frames were discarded on
// ports whose lossless class a storm watchdog had disabled.
func (n *Network) WatchdogPauseIgnores() uint64 { return n.watchdogPauseIgnores }

// FlowPathCPs enumerates the congestion points — (switch, egress port)
// pairs — a flow's data packets traverse from src to dst under the
// current routing tables, following the same ECMP hash the dataplane
// uses. The RoCC reaction point's forged-feedback defense treats this
// set as the witness list: a CNP claiming a congestion point off the
// flow's path was never earned by the flow's own packets. Returns nil
// when the path is broken (blackhole window) or the ids are not hosts.
func (n *Network) FlowPathCPs(flow FlowID, src, dst NodeID) []CPID {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) {
		return nil
	}
	h, ok := n.nodes[src].(*Host)
	if !ok || h.nic[0] == nil {
		return nil
	}
	probe := Packet{Flow: flow, Dst: dst}
	node := h.nic[0].PeerNode
	var out []CPID
	for hops := 0; hops <= n.maxHops(); hops++ {
		sw, ok := node.(*Switch)
		if !ok {
			return out // reached a host (the destination)
		}
		p := sw.egressFor(&probe)
		if p == nil {
			return out
		}
		out = append(out, CPID{Node: sw.id, Port: p.Index})
		node = p.PeerNode
	}
	return out
}

// Reconverges returns how many route recomputations have completed.
func (n *Network) Reconverges() uint64 { return n.reconverges }

// StalePauseDrops returns how many PFC frames were discarded because
// they predate the receiving link's last re-establishment.
func (n *Network) StalePauseDrops() uint64 { return n.stalePauseDrops }
