// Package qos implements the extension the paper names as future work
// (§8): congestion control "with emphasis on QoS, where class-level
// fairness is essential".
//
// The design stays within RoCC's architecture: the congestion point
// still runs one PI controller on the shared egress queue, computing a
// base fair rate F. Each traffic class c carries a weight w_c, and the
// CNP sent to a class-c flow carries w_c·F instead of F. At equilibrium
//
//	Σ_c N_c · w_c · F = C    ⇒    class c's share = N_c·w_c / Σ N_i·w_i
//
// so classes divide the link in proportion to their aggregate weight
// while flows within a class stay max-min fair — class-level fairness
// without touching the dataplane scheduler.
package qos

import (
	"rocc/internal/core"
	"rocc/internal/flowtable"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Classifier maps a flow to its traffic class index.
type Classifier func(netsim.FlowID) int

// Options configures a weighted congestion point.
type Options struct {
	// Core holds the Alg. 1 parameters for the base controller. The
	// zero value selects defaults for the port's bandwidth.
	Core core.CPConfig

	// T is the update interval (40 µs default).
	T sim.Time

	// Weights are the per-class rate multipliers; the highest-weight
	// class should keep w·Fmax within the RP's acceptance bounds, so
	// weights are conventionally normalized with max(w) == 1.
	Weights []float64

	// Classify maps flows to classes. Flows mapping outside
	// [0, len(Weights)) use weight 1.
	Classify Classifier

	// MinSignalBytes mirrors roccnet.CPOptions.MinSignalBytes.
	MinSignalBytes int
}

// CP is a class-aware RoCC congestion point on one egress port.
type CP struct {
	net   *netsim.Network
	sw    *netsim.Switch
	port  *netsim.Port
	core  *core.CP
	table *flowtable.QueueTable
	opts  Options
	tick  *sim.Ticker

	// recipients is update's reused Flows buffer (see roccnet.CP).
	recipients []flowtable.FlowID

	CNPsSent uint64
}

// Attach installs a weighted congestion point on a switch egress port.
func Attach(net *netsim.Network, sw *netsim.Switch, port *netsim.Port, opts Options) *CP {
	if opts.Core.DeltaFMbps == 0 {
		opts.Core = core.CPConfigForGbps(port.LinkRate.Gbps())
	}
	if opts.T == 0 {
		opts.T = 40 * sim.Microsecond
	}
	if len(opts.Weights) == 0 {
		opts.Weights = []float64{1}
	}
	if opts.Classify == nil {
		opts.Classify = func(netsim.FlowID) int { return 0 }
	}
	if opts.MinSignalBytes == 0 {
		opts.MinSignalBytes = 2 * (netsim.MTUPayload + netsim.HeaderBytes)
	}
	cp := &CP{
		net:   net,
		sw:    sw,
		port:  port,
		core:  core.NewCP(opts.Core),
		table: flowtable.NewQueueTable(),
		opts:  opts,
	}
	port.CC = cp
	cp.tick = port.Engine().NewTicker(opts.T, cp.update)
	return cp
}

// Stop cancels the update timer.
func (cp *CP) Stop() { cp.tick.Stop() }

// BaseRateMbps returns the unweighted fair rate F.
func (cp *CP) BaseRateMbps() float64 { return cp.core.FairRateMbps() }

// OnEnqueue implements netsim.PortCC.
func (cp *CP) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.table.OnEnqueue(now, flowtable.FlowID(pkt.Flow), pkt.Size)
}

// OnDequeue implements netsim.PortCC.
func (cp *CP) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	cp.table.OnDequeue(now, flowtable.FlowID(pkt.Flow), pkt.Size)
}

func (cp *CP) weight(f netsim.FlowID) float64 {
	c := cp.opts.Classify(f)
	if c < 0 || c >= len(cp.opts.Weights) {
		return 1
	}
	return cp.opts.Weights[c]
}

func (cp *CP) update() {
	now := cp.port.Engine().Now()
	qcur := cp.port.DataQueueBytes()
	baseUnits := cp.core.Update(qcur)
	if qcur < cp.opts.MinSignalBytes {
		return
	}
	cpid := netsim.CPID{Node: cp.sw.ID(), Port: cp.port.Index}
	cp.recipients = cp.table.Flows(now, cp.recipients[:0])
	for _, fid := range cp.recipients {
		f := cp.net.Flow(netsim.FlowID(fid))
		if f == nil {
			continue
		}
		units := int(float64(baseUnits)*cp.weight(f.ID) + 0.5)
		if units < 1 {
			units = 1
		}
		cnp := cp.net.AcquirePacket(cp.sw)
		cnp.Flow = f.ID
		cnp.Src = cp.sw.ID()
		cnp.Dst = f.Src().ID()
		cnp.Kind = netsim.KindCNP
		cnp.Cls = netsim.ClassCtrl
		cnp.Size = netsim.CNPBytes
		cnp.SendTS = now
		info := cnp.EnsureCNP()
		info.CP = cpid
		info.RateUnits = units
		cp.sw.Inject(cnp)
		cp.CNPsSent++
	}
}
