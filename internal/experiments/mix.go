package experiments

import (
	"fmt"

	"rocc/internal/dcqcn"
	"rocc/internal/dcqcnpi"
	"rocc/internal/dctcp"
	"rocc/internal/hpcc"
	"rocc/internal/netsim"
	"rocc/internal/qcn"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/timely"
)

// Mix composes congestion control for a whole fabric, protocol by
// protocol: it instantiates one CongestionOps descriptor per protocol in
// play, attaches the union of their switch and receiver elements, sizes
// packet-feature capacities (Network.INTHopCap) to the max over the set,
// and hands each flow its own controller. A port or host shared by a
// single protocol keeps that protocol's element installed directly — the
// fast path every one-protocol experiment runs on — while sharing by two
// or more protocols inserts a per-flow demultiplexer.
type Mix struct {
	Net     *netsim.Network
	BaseRTT sim.Time // HPCC's T parameter; also used for DCTCP scaling

	rand *sim.Rand

	// roccCP and roccRP are the RoCC descriptor's options; Assemble sets
	// them from its RunSpec before any protocol is instantiated.
	roccCP roccnet.CPOptions
	roccRP roccnet.RPOptions

	// CPs collects attached RoCC congestion points for instrumentation.
	CPs map[*netsim.Port]*roccnet.CP

	ops       map[Protocol]netsim.CongestionOps
	active    []Protocol // instantiation order; the EnableAllSwitchPorts sweep order
	ports     map[*netsim.Port]*portState
	receivers map[*netsim.Host]*receiverState
}

// NewMix builds an empty composer for the network. baseRTT parameterizes
// window-based protocols; zero uses a 10 µs default.
func NewMix(net *netsim.Network, baseRTT sim.Time) *Mix {
	if baseRTT == 0 {
		baseRTT = 10 * sim.Microsecond
	}
	return &Mix{
		Net:       net,
		BaseRTT:   baseRTT,
		rand:      net.Rand.Split(),
		CPs:       make(map[*netsim.Port]*roccnet.CP),
		ops:       make(map[Protocol]netsim.CongestionOps),
		ports:     make(map[*netsim.Port]*portState),
		receivers: make(map[*netsim.Host]*receiverState),
	}
}

// Ops returns the protocol's descriptor, instantiating it on first use.
// Instantiation raises the network's packet-feature capacities to the max
// over the protocols in play — so HPCC joining a fabric presizes INT
// buffers even when another protocol got there first.
func (m *Mix) Ops(proto Protocol) netsim.CongestionOps {
	if ops, ok := m.ops[proto]; ok {
		return ops
	}
	ops := m.newOps(proto)
	m.ops[proto] = ops
	m.active = append(m.active, proto)
	if f := ops.Features(); f.INTHops > m.Net.INTHopCap {
		m.Net.INTHopCap = f.INTHops
	}
	return ops
}

// newOps builds a protocol's descriptor from the Mix's options (base
// RTT, shared marking RNG, RoCC options).
func (m *Mix) newOps(proto Protocol) netsim.CongestionOps {
	switch proto {
	case ProtoRoCC:
		o := roccnet.NewOps(m.roccCP, m.roccRP)
		o.CPs = m.CPs
		return o
	case ProtoDCQCN:
		return &dcqcn.Ops{Rand: m.rand}
	case ProtoDCQCNPI:
		return &dcqcnpi.Ops{Rand: m.rand}
	case ProtoHPCC:
		return &hpcc.Ops{BaseRTT: m.BaseRTT}
	case ProtoTIMELY:
		return &timely.Ops{}
	case ProtoQCN:
		return &qcn.Ops{}
	case ProtoDCTCP:
		return &dctcp.Ops{BaseRTT: m.BaseRTT}
	}
	panic("experiments: unknown protocol " + string(proto))
}

// Activate instantiates a protocol's descriptor without wiring anything,
// adding it to the set the Mix-level EnableAllSwitchPorts and
// AttachReceivers sweeps cover.
func (m *Mix) Activate(proto Protocol) { m.Ops(proto) }

// portState tracks one port's attachments: which protocols enabled it
// (idempotency) and the switch-side elements in attach order (mux
// construction).
type portState struct {
	protos []Protocol
	ccs    []netsim.PortCC // parallel to protos; nil for no-switch-action protocols
}

func (ps *portState) has(proto Protocol) bool {
	for _, p := range ps.protos {
		if p == proto {
			return true
		}
	}
	return false
}

// EnablePort attaches one protocol's switch-side element to an egress
// port. Repeat calls for the same (port, protocol) are no-ops, so wiring
// sweeps can overlap without stacking fair-rate tickers. A port already
// carrying an attachment this Mix does not manage panics with both
// protocol names — the silent-overwrite path is gone; mixed fabrics must
// share one Mix.
func (m *Mix) EnablePort(proto Protocol, port *netsim.Port) {
	sw, ok := port.Owner().(*netsim.Switch)
	if !ok {
		panic("experiments: EnablePort needs a switch egress port")
	}
	ps := m.ports[port]
	if ps == nil {
		if port.CC != nil {
			panic(fmt.Sprintf(
				"experiments: %s port %d already has a %s attachment not managed by this Mix; enabling %s would overwrite it (use one Mix per fabric)",
				sw.Name, port.Index, netsim.CCProtocolName(port.CC), proto))
		}
		ps = &portState{}
		m.ports[port] = ps
	}
	if ps.has(proto) {
		return
	}
	cc := m.Ops(proto).AttachPort(m.Net, sw, port)
	ps.protos = append(ps.protos, proto)
	ps.ccs = append(ps.ccs, cc)
	m.placePortCC(port, ps)
}

// placePortCC decides what lands on the port's single CC slot: nothing,
// the lone element directly, or a per-flow demultiplexer over the set.
// (Attach-style constructors set port.CC themselves; placement here is
// authoritative either way.)
func (m *Mix) placePortCC(port *netsim.Port, ps *portState) {
	var entries []muxEntry
	for i, cc := range ps.ccs {
		if cc != nil {
			entries = append(entries, muxEntry{ops: m.ops[ps.protos[i]], cc: cc})
		}
	}
	switch len(entries) {
	case 0:
		port.CC = nil
	case 1:
		port.CC = entries[0].cc
	default:
		port.CC = &portMux{mix: m, entries: entries}
	}
}

// EnableAllSwitchPorts attaches every active protocol on every switch
// egress port — the wiring sweep. Activate the protocols first.
func (m *Mix) EnableAllSwitchPorts() {
	for _, sw := range m.Net.Switches() {
		for _, p := range sw.Ports() {
			for _, proto := range m.active {
				m.EnablePort(proto, p)
			}
		}
	}
}

// muxEntry pairs a switch-side element (or receiver hook) with the
// descriptor that owns it, for per-flow dispatch.
type muxEntry struct {
	ops netsim.CongestionOps
	cc  netsim.PortCC
}

// portMux demultiplexes a shared port's PortCC callbacks to the element
// of the protocol that owns each packet's flow: the scheme the flow
// recorded at start (netsim.Flow.Scheme). Packets of flows the Mix did
// not start (or that completed past the removal grace) see no
// switch-side action — each protocol's element observes exactly its own
// traffic, so e.g. a DCQCN marker never marks RoCC packets and a RoCC
// flow table never tracks DCQCN flows.
type portMux struct {
	mix     *Mix
	entries []muxEntry
}

// flowScheme returns the scheme a registered flow started under, nil for
// a flow that is gone or was started outside a composer.
func (m *Mix) flowScheme(fid netsim.FlowID) netsim.CongestionOps {
	if f := m.Net.Flow(fid); f != nil {
		return f.Scheme()
	}
	return nil
}

func (x *portMux) lookup(fid netsim.FlowID) netsim.PortCC {
	ops := x.mix.flowScheme(fid)
	if ops == nil {
		return nil
	}
	for _, e := range x.entries {
		if e.ops == ops {
			return e.cc
		}
	}
	return nil
}

// OnEnqueue implements netsim.PortCC.
func (x *portMux) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if cc := x.lookup(pkt.Flow); cc != nil {
		cc.OnEnqueue(now, pkt, qlen)
	}
}

// OnDequeue implements netsim.PortCC.
func (x *portMux) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if cc := x.lookup(pkt.Flow); cc != nil {
		cc.OnDequeue(now, pkt, qlen)
	}
}

// CCProtocol implements netsim.ProtocolNamer.
func (x *portMux) CCProtocol() string {
	name := "mix("
	for i, e := range x.entries {
		if i > 0 {
			name += "+"
		}
		name += e.ops.Name()
	}
	return name + ")"
}

// receiverState tracks one host's receiver hooks by protocol.
type receiverState struct {
	protos []Protocol
	hooks  []netsim.ReceiverHook // parallel to protos; nil for hook-less protocols
}

func (rs *receiverState) has(proto Protocol) bool {
	for _, p := range rs.protos {
		if p == proto {
			return true
		}
	}
	return false
}

// AttachReceiver installs one protocol's destination-side hook on a
// host. Idempotent per (host, protocol); hook-less protocols leave the
// host untouched. Like EnablePort, a receiver installed outside this Mix
// is a conflict, not an overwrite.
func (m *Mix) AttachReceiver(proto Protocol, h *netsim.Host) {
	rs := m.receivers[h]
	if rs == nil {
		rs = &receiverState{}
		m.receivers[h] = rs
	}
	if rs.has(proto) {
		return
	}
	hook := m.Ops(proto).NewReceiver(m.Net, h)
	if hook != nil && h.Receiver != nil && !rs.installed(h.Receiver) {
		panic(fmt.Sprintf(
			"experiments: host %s already has a receiver hook not managed by this Mix; attaching %s would overwrite it",
			h.Name, proto))
	}
	rs.protos = append(rs.protos, proto)
	rs.hooks = append(rs.hooks, hook)
	m.placeReceiver(h, rs)
}

// installed reports whether the host's current receiver is one this
// state owns (directly or as its mux).
func (rs *receiverState) installed(hook netsim.ReceiverHook) bool {
	if _, ok := hook.(*receiverMux); ok {
		return true
	}
	for _, h := range rs.hooks {
		if h == hook {
			return true
		}
	}
	return false
}

func (m *Mix) placeReceiver(h *netsim.Host, rs *receiverState) {
	var entries []recvEntry
	for i, hook := range rs.hooks {
		if hook != nil {
			entries = append(entries, recvEntry{ops: m.ops[rs.protos[i]], hook: hook})
		}
	}
	switch len(entries) {
	case 0:
		// Leave h.Receiver as is (nil, or a hook someone else owns).
	case 1:
		h.Receiver = entries[0].hook
	default:
		h.Receiver = &receiverMux{mix: m, entries: entries}
	}
}

// AttachReceivers installs every active protocol's receiver hook on
// every host.
func (m *Mix) AttachReceivers() {
	for _, h := range m.Net.Hosts() {
		for _, proto := range m.active {
			m.AttachReceiver(proto, h)
		}
	}
}

type recvEntry struct {
	ops  netsim.CongestionOps
	hook netsim.ReceiverHook
}

// receiverMux demultiplexes a shared host's OnData to the hook of the
// protocol owning the packet's flow.
type receiverMux struct {
	mix     *Mix
	entries []recvEntry
}

// OnData implements netsim.ReceiverHook.
func (x *receiverMux) OnData(now sim.Time, pkt *netsim.Packet) *netsim.Packet {
	ops := x.mix.flowScheme(pkt.Flow)
	if ops == nil {
		return nil
	}
	for _, e := range x.entries {
		if e.ops == ops {
			return e.hook.OnData(now, pkt)
		}
	}
	return nil
}

// StartFlow launches a flow under one protocol: its controller, its ACK
// cadence, its per-packet header overhead.
func (m *Mix) StartFlow(proto Protocol, src, dst *netsim.Host, size int64, maxRate netsim.Rate) *netsim.Flow {
	return m.StartWrappedFlow(proto, src, dst, size, maxRate, false, nil)
}

// StartWrappedFlow is StartFlow with a reliability mode and an
// interposer on the flow's controller: wrap receives the protocol's
// freshly built FlowCC and returns the controller the flow actually
// runs — how the adversary layer turns any protocol's sender into a
// rogue (CNP-deaf, ECN-blind, blasting) without the protocol knowing.
// A nil wrap runs the protocol's controller as built; reliable selects
// go-back-N (App. A.2's lossy runs).
func (m *Mix) StartWrappedFlow(proto Protocol, src, dst *netsim.Host, size int64, maxRate netsim.Rate, reliable bool, wrap func(netsim.FlowCC) netsim.FlowCC) *netsim.Flow {
	ops := m.Ops(proto)
	cc := ops.NewFlowCC(m.Net, src)
	if wrap != nil {
		cc = wrap(cc)
	}
	return m.Net.StartFlow(src, dst, netsim.FlowConfig{
		Size:        size,
		MaxRate:     maxRate,
		CC:          cc,
		Reliable:    reliable,
		AckEvery:    ops.AckEvery(src),
		ExtraHeader: ops.Features().ExtraHeaderBytes,
		Scheme:      ops,
	})
}
