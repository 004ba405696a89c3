package chaos

import (
	"rocc/internal/adversary"
	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// faultSeedOffset decorrelates the injector's RNG from the workload
// stream, matching the experiments package's FaultSeed convention.
const faultSeedOffset = 0x5eed

// RunOptions tunes the monitors around one scenario run. The zero value
// selects defaults calibrated so clean scenarios never trip (pinned by
// TestCleanScenariosTripNoInvariant).
type RunOptions struct {
	// SampleEvery is the monitor tick. Default 100 µs.
	SampleEvery sim.Time

	// DrainGrace runs past the scenario end with all flows stopped and
	// all fault schedules quiesced before the residue checks. Default
	// 5 ms (a full shared buffer drains a 10G link in ~2.4 ms).
	DrainGrace sim.Time

	// MaxPauseSpan is the pause-storm watchdog budget for one pause
	// interval. Default 5 ms — orders of magnitude past a healthy pause,
	// well under a wedged one.
	MaxPauseSpan sim.Time

	// MinJain is the fairness floor on clean star runs. Default 0.25 —
	// catastrophic starvation, not protocol ranking.
	MinJain float64

	// QueueSlackBytes is the per-port in-flight allowance on top of the
	// shared PFC Xoff trigger. Default 64 KB.
	QueueSlackBytes int

	// StopOnFirst halts the simulation at the first violation (the
	// shrinker's mode; verdicts stay deterministic either way).
	StopOnFirst bool

	// Shards runs the scenario on that many engine shards (fat-trees cut
	// pod-aligned, other topologies switch-aligned; clamped to the
	// topology's pod/switch count; the zero value means one). Verdicts
	// and counters are byte-identical at every shard count for a fixed
	// scenario.
	Shards int

	// Telemetry, when set, is attached to the network so a repro run
	// captures a Chrome trace of the failing window.
	Telemetry *experiments.RunTelemetry

	// DisablePacketPool runs the scenario with packet pooling off (every
	// acquire allocates, releases fall to the GC). Pooling is pure reuse —
	// verdicts and counters must be identical either way, which the
	// byte-identity test asserts across all protocols.
	DisablePacketPool bool

	// Custom monitors run alongside the built-ins.
	Custom []CustomMonitor
}

func (o RunOptions) withDefaults() RunOptions {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 100 * sim.Microsecond
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 5 * sim.Millisecond
	}
	if o.MaxPauseSpan <= 0 {
		o.MaxPauseSpan = 5 * sim.Millisecond
	}
	if o.MinJain <= 0 {
		o.MinJain = 0.25
	}
	if o.QueueSlackBytes <= 0 {
		o.QueueSlackBytes = 64 * netsim.KB
	}
	return o
}

// Result is one scenario's verdict plus the run counters a soak log
// reports. It contains only simulation-derived values, so replaying a
// scenario reproduces it exactly.
type Result struct {
	Seed       int64       `json:"seed"`
	Violations []Violation `json:"violations,omitempty"`

	FlowsStarted   int          `json:"flows_started"`
	FlowsDone      int          `json:"flows_done"`
	DeliveredBytes int64        `json:"delivered_bytes"`
	Drops          int          `json:"drops"`
	PFCFrames      int          `json:"pfc_frames"`
	PauseStorms    uint64       `json:"pause_storms"`
	LongestPauseNs int64        `json:"longest_pause_ns"`
	FaultStats     faults.Stats `json:"fault_stats"`

	// Defense activity, all zero on undefended runs.
	Quarantines   int `json:"quarantines,omitempty"`
	Releases      int `json:"releases,omitempty"`
	PolicedDrops  int `json:"policed_drops,omitempty"`
	WatchdogTrips int `json:"watchdog_trips,omitempty"`
	WatchdogDrops int `json:"watchdog_drops,omitempty"`
}

// Violated reports whether the named invariant tripped (any invariant
// when name is "").
func (r Result) Violated(name string) bool {
	for _, v := range r.Violations {
		if name == "" || v.Invariant == name {
			return true
		}
	}
	return false
}

// Run executes one scenario under the full monitor suite and returns its
// verdict. The error is non-nil only for scenarios Validate rejects —
// invariant trips are data (Result.Violations), not errors.
func Run(sc Scenario, opts RunOptions) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	engine := sim.New()
	fab := sc.buildFabric(engine)
	net := fab.net
	if o.DisablePacketPool {
		net.SetPooling(false)
	}
	if o.Telemetry != nil {
		net.SetTelemetry(o.Telemetry.Registry, o.Telemetry.Recorder)
	}
	// Shard before any protocol attachment so CPs, markers and defenses
	// schedule on their node's shard engine.
	if fab.ft != nil {
		topology.PartitionFatTree(fab.ft, o.Shards).Apply(net)
	} else {
		topology.PartitionAuto(net, o.Shards).Apply(net)
	}

	protos := sc.Protocols()
	mode := sc.OperatingMode()
	mix := experiments.NewMix(net, 0)
	// Faulted runs lose CNPs; give RoCC flows the paper's staleness
	// re-homing so feedback loss degrades instead of wedging.
	mix.RoCCRP.StaleK = core.DefaultStaleK
	defended := sc.Defended && mode.CCEnabled()
	if defended {
		// The end-host half of the defense: RoCC reaction points refuse
		// CNPs from congestion points that are not on the flow's path and
		// stale (replayed) feedback.
		mix.RoCCRP.VerifyCPPath = true
		mix.RoCCRP.MaxCNPAge = 250 * sim.Microsecond
	}
	for _, p := range protos {
		mix.Activate(p)
	}
	if mode.CCEnabled() {
		mix.EnableAllSwitchPorts()
		mix.AttachReceivers()
	}

	var policers []*adversary.Policer
	var watchdogs []*adversary.Watchdog
	if defended {
		advertised := func(port *netsim.Port) (netsim.Rate, bool) {
			if cp := mix.CPs[port]; cp != nil {
				return netsim.Mbps(cp.FairRateMbps()), true
			}
			return 0, false
		}
		for _, sw := range net.Switches() {
			// The chaos policer is gentler than the benchmark defaults:
			// random workloads legitimately overshoot stale shares during
			// incast convergence, and a mis-quarantined honest flow is a
			// false soak failure. Rogues overshoot by an order of
			// magnitude, so the wider margin costs only detection latency.
			// RequireAdvertised confines policing to RoCC-governed egresses
			// — on a random workload the equal-split fallback mistakes a
			// work-conserving flow absorbing idle capacity for a rogue; the
			// switch only enforces the contract it actually advertised.
			policers = append(policers, adversary.NewPolicer(net, sw, adversary.PolicerConfig{
				Margin:            2,
				TripAfter:         6,
				AdvertisedRate:    advertised,
				RequireAdvertised: true,
			}))
			// The watchdog deadline matches the monitor's pause budget: a
			// pause that would have tripped the pause-storm invariant is
			// instead broken by the deployed mitigation, and the
			// watchdog-liveness invariant guards the mitigation itself.
			watchdogs = append(watchdogs, adversary.NewWatchdog(net, sw, adversary.WatchdogConfig{
				Deadline: o.MaxPauseSpan,
			}))
		}
	}

	rt := &Runtime{
		Scenario:  sc,
		Engine:    engine,
		Net:       net,
		Flows:     make([]*netsim.Flow, len(sc.Flows)),
		Policers:  policers,
		Watchdogs: watchdogs,
		fab:       fab,
	}
	for _, f := range sc.Faults {
		if f.Kind == FaultLink && f.Scope == ScopeData && f.Duplicate > 0 {
			rt.hasDupData = true
		}
	}

	dur := sc.Duration()
	for i, fs := range sc.Flows {
		i, fs := i, fs
		engine.At(sim.Time(fs.StartNs), func() {
			src, dst := fab.hosts[fs.Src], fab.hosts[fs.Dst]
			var rateCap netsim.Rate
			if fs.MaxRateMbps > 0 {
				rateCap = netsim.Mbps(fs.MaxRateMbps)
			}
			var f *netsim.Flow
			if mode.CCEnabled() {
				var wrap func(netsim.FlowCC) netsim.FlowCC
				if fs.Rogue != "" {
					// Rogue sender: the genuine controller is built and
					// wired, then wrapped in the named misbehaviour. The
					// kind adapts to the protocol's actual feedback channel
					// (CNP-deaf is vacuous for schemes that never see a CNP).
					kind, _ := adversary.ParseRogueKind(fs.Rogue) // Validate vetted it
					kind = experiments.EffectiveRogueKind(sc.FlowProtocol(i), kind)
					blastRate := src.Ports()[0].LinkRate
					wrap = func(cc netsim.FlowCC) netsim.FlowCC {
						return adversary.WrapRogue(kind, cc, blastRate)
					}
				}
				f = mix.StartWrappedFlow(sc.FlowProtocol(i), src, dst, fs.SizeBytes, rateCap, fs.Reliable, wrap)
			} else {
				// PFC-only: no controller — sources blast at their caps and
				// hop-by-hop pause is the only brake.
				f = net.StartFlow(src, dst, netsim.FlowConfig{
					Size:     fs.SizeBytes,
					MaxRate:  rateCap,
					Reliable: fs.Reliable,
				})
			}
			rt.Flows[i] = f
			if cc, ok := f.CC.(*roccnet.FlowCC); ok {
				rt.RoCCRPs = append(rt.RoCCRPs, cc.RP())
			}
		})
	}
	engine.At(dur, func() {
		for _, f := range rt.Flows {
			if f != nil && !f.Done() {
				f.Stop()
			}
		}
	})
	engine.At(dur/2, func() {
		rt.midBytes = make([]int64, len(rt.Flows))
		for i, f := range rt.Flows {
			if f != nil {
				rt.midBytes[i] = f.DeliveredBytes()
			}
		}
	})

	if len(sc.Faults) > 0 {
		rt.Injector = faults.New(net, sc.Seed+faultSeedOffset)
		for _, f := range sc.Faults {
			attachFault(rt.Injector, fab, f, dur)
		}
	}
	for _, f := range sc.Faults {
		if f.Kind != FaultLinkKill && f.Kind != FaultSwitchKill {
			continue
		}
		// Recovery snapshot: shortly after the restore's reconvergence the
		// fabric is whole again. The final blackhole/recovery checkers
		// compare the end-of-run state against this point.
		snapAt := sim.Time(f.RestoreNs) + netsim.DefaultReconvergeDelay + 100*sim.Microsecond
		// The recovery (must-deliver-again) arm needs running time after
		// the snapshot to be meaningful; a restore at the very end of the
		// run still gets the blackhole check, just not this one.
		canRecover := snapAt+500*sim.Microsecond <= dur
		engine.At(snapAt, func() {
			rt.recoverSet = true
			rt.blackholeAtRecovery = net.BlackholeDrops()
			for i, fl := range rt.Flows {
				if fl == nil {
					continue
				}
				rt.recoverBytes += fl.DeliveredBytes()
				if canRecover && sc.Flows[i].SizeBytes == -1 && !fl.Done() {
					rt.liveAtRecovery = true
				}
			}
		})
	}

	var violations []Violation
	seen := make(map[string]bool)
	halted := false
	violate := func(name, detail string) {
		if seen[name] {
			return
		}
		seen[name] = true
		violations = append(violations, Violation{
			Invariant: name,
			AtNs:      int64(engine.Now()),
			Detail:    detail,
		})
		if o.StopOnFirst {
			halted = true
			engine.Stop()
		}
	}
	sample := func() {
		for _, c := range sampleCheckers {
			if detail, bad := c.fn(rt, o); bad {
				violate(c.name, detail)
			}
		}
		for _, c := range o.Custom {
			if c.Sample == nil {
				continue
			}
			if detail, bad := c.Sample(rt); bad {
				violate(c.Name, detail)
			}
		}
	}
	ticker := engine.NewTicker(o.SampleEvery, sample)
	defer ticker.Stop()

	engine.RunUntil(dur)
	if !halted {
		engine.RunUntil(dur + o.DrainGrace)
	}
	if !halted {
		sample() // one last mid-run sweep at the drained state
		for _, c := range finalCheckers {
			if detail, bad := c.fn(rt, o); bad {
				violate(c.name, detail)
			}
		}
		for _, c := range o.Custom {
			if c.Final == nil {
				continue
			}
			if detail, bad := c.Final(rt); bad {
				violate(c.Name, detail)
			}
		}
	}

	res := Result{Seed: sc.Seed, Violations: violations}
	for _, f := range rt.Flows {
		if f == nil {
			continue
		}
		res.FlowsStarted++
		if f.Done() {
			res.FlowsDone++
		}
		res.DeliveredBytes += f.DeliveredBytes()
	}
	res.Drops = net.TotalDrops()
	res.PFCFrames = net.TotalPFCFrames()
	res.PauseStorms = net.PauseStorms()
	res.LongestPauseNs = int64(net.LongestPauseSpan())
	if rt.Injector != nil {
		res.FaultStats = rt.Injector.Stats()
	}
	for _, p := range policers {
		res.Quarantines += p.Stats().Detections
		res.Releases += p.Stats().Releases
	}
	for _, w := range watchdogs {
		res.WatchdogTrips += w.Stats().Trips
	}
	res.PolicedDrops = net.PolicedDrops()
	res.WatchdogDrops = net.WatchdogDrops()
	return res, nil
}

// attachFault wires one FaultSpec into the injector. Flap and stall
// schedules are windowed to the scenario duration so the network is
// whole again for the drain-phase residue checks.
func attachFault(inj *faults.Injector, fab *fabric, f FaultSpec, dur sim.Time) {
	switch f.Kind {
	case FaultLink:
		link := fab.links[f.Link]
		inj.Link(link[0], link[1], faults.LinkConfig{
			Drop:      f.Drop,
			Corrupt:   f.Corrupt,
			Duplicate: f.Duplicate,
			Reorder:   f.Reorder,
			Match:     scopeMatch(f.Scope),
		})
	case FaultFlap:
		link := fab.links[f.Link]
		inj.FlapWindow(link[0], link[1], sim.Time(f.PeriodNs), sim.Time(f.ActiveNs), dur)
	case FaultCNPLoss:
		inj.DropCNPs(fab.net.Switches()[f.Switch], f.Prob)
	case FaultCPStall:
		inj.StallCPWindow(fab.net.Switches()[f.Switch], sim.Time(f.PeriodNs), sim.Time(f.ActiveNs), dur)
	case FaultLinkKill:
		link := fab.links[f.Link]
		inj.KillLink(link[0], link[1], sim.Time(f.AtNs), sim.Time(f.RestoreNs))
	case FaultSwitchKill:
		inj.KillSwitch(fab.net.Switches()[f.Switch], sim.Time(f.AtNs), sim.Time(f.RestoreNs))
	}
}
