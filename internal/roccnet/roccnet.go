// Package roccnet binds the pure RoCC algorithms in internal/core to the
// packet-level simulator in internal/netsim: the congestion point attaches
// to switch egress ports (fair-rate timer, flow table, CNP generation) and
// the reaction point implements netsim.FlowCC (rate limiting, fast
// recovery).
package roccnet

import (
	"fmt"

	"rocc/internal/core"
	"rocc/internal/flowtable"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// CPOptions configures one congestion point (an egress port).
type CPOptions struct {
	// Core holds the Alg. 1 parameters. Zero value selects defaults for
	// the port's link bandwidth via core.CPConfigForGbps.
	Core core.CPConfig

	// T is the fair-rate update interval; zero selects defaultT.
	T sim.Time

	// Table selects the flow-table implementation (§3.4). Nil uses the
	// paper's default, a fresh queue-occupancy table per port. A set
	// Table is one instance: every port wired with these options shares
	// it.
	Table flowtable.Table

	// HostComputed enables the §3.6 mode: CNPs carry raw queue
	// observations and hosts replicate the fair-rate computation.
	HostComputed bool

	// CNPClass is the traffic class CNPs travel in. The paper prioritizes
	// them (ClassCtrl); DESIGN.md §4.4's row demotes them to ClassData.
	CNPClass netsim.Class

	// Weight, when set, scales each CNP's rate by the recipient flow's
	// class weight (§8's QoS extension): flows of class c converge to
	// w_c·F, so classes split the link in proportion to their aggregate
	// weight while flows within a class stay max-min fair. Weights are
	// conventionally normalized with max(w) == 1, keeping w·Fmax within
	// the RP's acceptance bounds. Host-computed mode ignores it.
	Weight func(netsim.FlowID) float64
}

// defaultT is the fair-rate update interval of §6.
const defaultT = 40 * sim.Microsecond

// minSignalBytes, two full packets, suppresses feedback while the egress
// queue is below it: an (almost) empty queue has no congestion to signal,
// and §3.4 sends feedback only to flows contributing to queue buildup.
// Without it, a CP recovering from an MD floor keeps re-trapping
// transiting flows at its stale-low rate.
const minSignalBytes = 2 * (netsim.MTUPayload + netsim.HeaderBytes)

// CP is a RoCC congestion point attached to one switch egress port.
type CP struct {
	net      *netsim.Network
	sw       *netsim.Switch
	port     *netsim.Port
	core     *core.CP
	table    flowtable.Table
	opts     CPOptions
	tick     *sim.Ticker
	hostQold int // previous observation in ΔQ units (host-computed mode)

	// recipients is update's reused Flows buffer. Injecting a CNP never
	// re-enters update, so one buffer per CP is enough.
	recipients []flowtable.FlowID

	// CNPsSent counts feedback messages generated.
	CNPsSent uint64

	// Telemetry (nil-safe; resolved from the network at Attach).
	rec    *telemetry.Recorder
	tmFair *telemetry.Histogram
}

// Attach installs a RoCC congestion point on the given egress port of sw
// and starts its fair-rate timer.
func Attach(net *netsim.Network, sw *netsim.Switch, port *netsim.Port, opts CPOptions) *CP {
	if opts.Core.DeltaFMbps == 0 {
		opts.Core = core.CPConfigForGbps(port.LinkRate.Gbps())
	}
	if opts.T == 0 {
		opts.T = defaultT
	}
	if opts.Table == nil {
		opts.Table = flowtable.NewQueueTable()
	}
	cp := &CP{
		net:   net,
		sw:    sw,
		port:  port,
		core:  core.NewCP(opts.Core),
		table: opts.Table,
		opts:  opts,
	}
	port.CC = cp
	reg := net.TelemetryRegistry()
	cp.rec = net.Recorder()
	cp.tmFair = reg.Histogram("rocc.cp.fair_rate_mbps")
	if reg != nil {
		// The fabric-wide CNP count and the per-CP fair-rate gauge,
		// both read at snapshot time.
		reg.CounterFunc("rocc.cp.cnps_sent", func() uint64 { return cp.CNPsSent })
		name := fmt.Sprintf("rocc.cp.n%dp%d.fair_rate_mbps", sw.ID(), port.Index)
		reg.GaugeFunc(name, cp.FairRateMbps)
	}
	// The fair-rate timer runs on the switch's engine, so every CP stays
	// local to its shard.
	cp.tick = port.Engine().NewTicker(opts.T, cp.update)
	return cp
}

// Stop cancels the fair-rate timer.
func (cp *CP) Stop() { cp.tick.Stop() }

// FairRateMbps returns the current fair rate in Mb/s.
func (cp *CP) FairRateMbps() float64 { return cp.core.FairRateMbps() }

// ID returns the congestion-point identifier carried in CNPs.
func (cp *CP) ID() netsim.CPID {
	return netsim.CPID{Node: cp.sw.ID(), Port: cp.port.Index}
}

// OnEnqueue implements netsim.PortCC.
func (cp *CP) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.table.OnEnqueue(now, flowtable.FlowID(pkt.Flow), pkt.Size)
}

// OnDequeue implements netsim.PortCC.
func (cp *CP) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.table.OnDequeue(now, flowtable.FlowID(pkt.Flow), pkt.Size)
}

// update runs once per T: compute the fair rate from the egress queue and
// send a CNP to every flow-table recipient (§3.2-§3.4). In host-computed
// mode (§3.6) the CNPs carry the queue observations instead of the rate;
// the CP still runs Alg. 1 on its queue so the gauge, the Sampler and the
// defended policer read a real rate, which may differ from the hosts'
// replicas (ROADMAP 23).
func (cp *CP) update() {
	now := cp.port.Engine().Now()
	qcur := cp.port.DataQueueBytes()
	rateUnits := cp.core.Update(qcur)
	cp.tmFair.Observe(int64(cp.core.FairRateMbps()))
	cp.rec.Record(telemetry.Event{
		At:    int64(now),
		Kind:  telemetry.KindCounter,
		Cat:   "rocc",
		Name:  "fair_rate_mbps",
		Node:  int64(cp.sw.ID()),
		Tid:   int64(cp.port.Index),
		Value: cp.core.FairRateMbps(),
	})
	var qoldUnits int
	if cp.opts.HostComputed {
		qoldUnits = cp.hostQold
		cp.hostQold = qcur / cp.opts.Core.DeltaQBytes
	}
	if !cp.opts.HostComputed && qcur < minSignalBytes {
		// No congestion to signal (§3.4). In host-computed mode CNPs
		// keep flowing: the queue observation itself is the signal, and
		// a near-empty observation raises the replica's rate rather
		// than trapping the flow at a stale value.
		return
	}
	cp.recipients = cp.table.Flows(now, cp.recipients[:0])
	if len(cp.recipients) == 0 {
		return
	}
	cpid := cp.ID()
	if w := cp.opts.Weight; w != nil && !cp.opts.HostComputed {
		for _, fid := range cp.recipients {
			if f := cp.net.Flow(netsim.FlowID(fid)); f != nil {
				cp.sendCNP(now, cpid, f, max(1, int(float64(float64(rateUnits)*w(f.ID))+0.5)), 0, 0)
			}
		}
		return
	}
	for _, fid := range cp.recipients {
		if f := cp.net.Flow(netsim.FlowID(fid)); f != nil {
			cp.sendCNP(now, cpid, f, rateUnits, qcur, qoldUnits)
		}
	}
}

// sendCNP injects one CNP toward f's source. In host-computed mode it
// carries the queue observations qcur (bytes) and qoldUnits instead of
// a rate.
func (cp *CP) sendCNP(now sim.Time, cpid netsim.CPID, f *netsim.Flow, rateUnits, qcur, qoldUnits int) {
	cnp := cp.net.AcquirePacket(cp.sw)
	cnp.Flow = f.ID
	cnp.Src = cp.sw.ID()
	cnp.Dst = f.Src().ID()
	cnp.Kind = netsim.KindCNP
	cnp.Cls = cp.opts.CNPClass
	cnp.Size = netsim.CNPBytes
	cnp.SendTS = now
	info := cnp.EnsureCNP()
	info.CP = cpid
	if cp.opts.HostComputed {
		info.HostComputed = true
		info.QCurUnits = qcur / cp.opts.Core.DeltaQBytes
		info.QOldUnits = qoldUnits
	} else {
		info.RateUnits = rateUnits
	}
	cp.sw.Inject(cnp)
	cp.CNPsSent++
}
