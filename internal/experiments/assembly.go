package experiments

import (
	"rocc/internal/adversary"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// RunSpec is everything a packet run wires between "topology built" and
// "traffic scheduled". Assemble applies it in one fixed order
// (DESIGN.md §14, "One run assembly").
type RunSpec struct {
	Net *netsim.Network
	// FatTree, set for a fat-tree fabric, cuts it pod-aligned; any other
	// fabric is cut switch-aligned.
	FatTree *topology.FatTree
	// Seed is the topology's seed; the fault injector runs on
	// Seed+FaultSeedOffset.
	Seed int64

	// Mode is the fabric's operating mode. Hybrid is the builders'
	// default and rewrites nothing; PFC-only also wires no congestion
	// control and no defenses.
	Mode netsim.OperatingMode
	// BufferBytes, when nonzero, outranks the CC-only lossy mode's 3×
	// threshold buffer: a positive value is the new cap, a negative one
	// removes the cap (Fig. 18's PFC-off, unlimited-buffer regime).
	BufferBytes int

	// Shards is the engine shard count, clamped to the fabric's pods or
	// switches; the zero value means one.
	Shards    int
	Telemetry *RunTelemetry

	BaseRTT   sim.Time // zero uses NewMix's default
	RoCCOpts  roccnet.CPOptions
	RoCCRP    roccnet.RPOptions
	Protocols []Protocol // activated in order; repeats are no-ops
	// Ports are the switch egress ports wired, in order; nil means every
	// switch port. Receivers are wired on every host.
	Ports []*netsim.Port

	// Defenses, when set, puts a compliance policer and a PFC storm
	// watchdog on every switch and hardens RoCC reaction points against
	// forged feedback.
	Defenses *Defenses
}

// Defenses configures the switch-side defenses. The policer's
// AdvertisedRate is the fair rate of the port's RoCC congestion point.
type Defenses struct {
	Policer  adversary.PolicerConfig
	Watchdog adversary.WatchdogConfig
}

// Assembly is an assembled run, ready for traffic.
type Assembly struct {
	Mix       *Mix
	Policers  []*adversary.Policer
	Watchdogs []*adversary.Watchdog

	spec RunSpec
	inj  *faults.Injector
}

// Assemble wires a built fabric for a run: operating mode and buffer
// regime, partition, telemetry, the Mix with its protocols, switch-port
// and receiver elements, then the defenses. Every step that schedules an
// event or splits a random stream does so here, in this order, so a
// runner decides only its topology and its traffic.
func Assemble(s RunSpec) *Assembly {
	net := s.Net
	if s.Mode != netsim.ModeHybrid {
		s.Mode.Apply(net.Switches())
		if s.Mode == netsim.ModeCCOnlyLossy && s.BufferBytes != 0 {
			for _, sw := range net.Switches() {
				sw.Buffer.TotalBytes = max(s.BufferBytes, 0)
			}
		}
	}
	var part topology.Partition
	if s.FatTree != nil {
		part = topology.PartitionFatTree(s.FatTree, s.Shards)
	} else {
		part = topology.PartitionAuto(net, s.Shards)
	}
	part.Apply(net)
	a := &Assembly{spec: s}
	if s.Telemetry != nil {
		net.SetTelemetry(s.Telemetry.Registry, s.Telemetry.Recorder)
	}

	defended := s.Defenses != nil && s.Mode.CCEnabled()
	if defended {
		// The end-host half of the defense: reject CNPs from off-path
		// congestion points and stale (replayed) feedback.
		s.RoCCRP.VerifyCPPath = true
		s.RoCCRP.MaxCNPAge = 250 * sim.Microsecond
	}
	a.Mix = NewMix(net, s.BaseRTT)
	a.Mix.roccCP, a.Mix.roccRP = s.RoCCOpts, s.RoCCRP
	for _, p := range s.Protocols {
		a.Mix.Activate(p)
	}
	if !s.Mode.CCEnabled() {
		return a
	}
	if s.Ports == nil {
		a.Mix.EnableAllSwitchPorts()
	} else {
		for _, port := range s.Ports {
			for _, p := range a.Mix.active {
				a.Mix.EnablePort(p, port)
			}
		}
	}
	a.Mix.AttachReceivers()

	if defended {
		pc := s.Defenses.Policer
		pc.AdvertisedRate = func(port *netsim.Port) (netsim.Rate, bool) {
			if cp := a.Mix.CPs[port]; cp != nil {
				return netsim.Mbps(cp.FairRateMbps()), true
			}
			return 0, false
		}
		for _, sw := range net.Switches() {
			a.Policers = append(a.Policers, adversary.NewPolicer(net, sw, pc))
			a.Watchdogs = append(a.Watchdogs, adversary.NewWatchdog(net, sw, s.Defenses.Watchdog))
		}
	}
	return a
}

// StartFlow launches a flow under proto through the Mix (see
// Mix.StartWrappedFlow). In PFC-only mode the flow has no controller:
// the source sends at maxRate and hop-by-hop pause is the only brake.
func (a *Assembly) StartFlow(proto Protocol, src, dst *netsim.Host, size int64, maxRate netsim.Rate, reliable bool, wrap func(netsim.FlowCC) netsim.FlowCC) *netsim.Flow {
	if !a.spec.Mode.CCEnabled() {
		return a.Mix.Net.StartFlow(src, dst, netsim.FlowConfig{Size: size, MaxRate: maxRate, Reliable: reliable})
	}
	return a.Mix.StartWrappedFlow(proto, src, dst, size, maxRate, reliable, wrap)
}

// Injector returns the run's fault injector, seeded Seed+FaultSeedOffset
// and created on first use. The faults it schedules are the caller's,
// placed where the caller's fault schedule sits in the run's event order.
func (a *Assembly) Injector() *faults.Injector {
	if a.inj == nil {
		a.inj = faults.New(a.Mix.Net, a.spec.Seed+FaultSeedOffset)
	}
	return a.inj
}
