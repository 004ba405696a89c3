package chaos

import (
	"rocc/internal/adversary"
	"rocc/internal/core"
	"rocc/internal/experiments"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
)

// The monitor calibration, chosen so clean scenarios never trip (pinned
// by TestCleanScenariosTripNoInvariant).
const (
	// sampleEvery is the monitor tick.
	sampleEvery = 100 * sim.Microsecond

	// drainGrace runs past the scenario end with all flows stopped and
	// all fault schedules quiesced before the residue checks (a full
	// shared buffer drains a 10G link in ~2.4 ms).
	drainGrace = 5 * sim.Millisecond

	// maxPauseSpan is the pause-storm watchdog budget for one pause
	// interval: orders of magnitude past a healthy pause, well under a
	// wedged one.
	maxPauseSpan = 5 * sim.Millisecond

	// minJain is the fairness floor on clean star runs: catastrophic
	// starvation, not protocol ranking.
	minJain = 0.25

	// queueSlackBytes is the per-port in-flight allowance on top of the
	// shared PFC Xoff trigger.
	queueSlackBytes = 64 * netsim.KB
)

// RunOptions tunes one scenario run.
type RunOptions struct {
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

	// Custom monitors run alongside the built-ins.
	Custom []CustomMonitor
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
func Run(sc Scenario, o RunOptions) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	engine := sim.New()
	fab := sc.buildFabric(engine)
	net := fab.net
	spec := experiments.RunSpec{
		Net:         net,
		FatTree:     fab.ft,
		Seed:        sc.Seed,
		Mode:        sc.OperatingMode(),
		BufferBytes: max(sc.BufferBytes, 0), // a negative override is none, as in buildFabric
		Shards:      o.Shards,
		Telemetry:   o.Telemetry,
		// Faulted runs lose CNPs; give RoCC flows the paper's staleness
		// re-homing so feedback loss degrades instead of wedging.
		RoCCRP:    roccnet.RPOptions{StaleK: core.DefaultStaleK},
		Protocols: sc.Protocols(),
	}
	if sc.Defended {
		spec.Defenses = &experiments.Defenses{
			// The chaos policer is gentler than the benchmark defaults:
			// random workloads legitimately overshoot stale shares during
			// incast convergence, and a mis-quarantined honest flow is a
			// false soak failure. Rogues overshoot by an order of
			// magnitude, so the wider margin costs only detection latency.
			// RequireAdvertised confines policing to RoCC-governed egresses
			// — on a random workload the equal-split fallback mistakes a
			// work-conserving flow absorbing idle capacity for a rogue; the
			// switch only enforces the contract it actually advertised.
			Policer: adversary.PolicerConfig{Margin: 2, TripAfter: 6, RequireAdvertised: true},
			// The watchdog deadline matches the monitor's pause budget: a
			// pause that would have tripped the pause-storm invariant is
			// instead broken by the deployed mitigation, and the
			// watchdog-liveness invariant guards the mitigation itself.
			Watchdog: adversary.WatchdogConfig{Deadline: maxPauseSpan},
		}
	}
	run := experiments.Assemble(spec)

	rt := &Runtime{
		Scenario:  sc,
		Engine:    engine,
		Net:       net,
		Flows:     make([]*netsim.Flow, len(sc.Flows)),
		Policers:  run.Policers,
		Watchdogs: run.Watchdogs,
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
			var wrap func(netsim.FlowCC) netsim.FlowCC
			if fs.Rogue != "" {
				// Rogue sender: the genuine controller is built and wired,
				// then wrapped in the named misbehaviour. The kind adapts to
				// the protocol's actual feedback channel (CNP-deaf is vacuous
				// for schemes that never see a CNP).
				kind, _ := adversary.ParseRogueKind(fs.Rogue) // Validate vetted it
				wrap = experiments.RogueWrap(sc.FlowProtocol(i), kind, src.Ports()[0].LinkRate)
			}
			f := run.StartFlow(sc.FlowProtocol(i), src, dst, fs.SizeBytes, rateCap, fs.Reliable, wrap)
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
		rt.Injector = run.Injector()
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
			if detail, bad := c.fn(rt); bad {
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
	ticker := engine.NewTicker(sampleEvery, sample)
	defer ticker.Stop()

	engine.RunUntil(dur)
	if !halted {
		engine.RunUntil(dur + drainGrace)
	}
	if !halted {
		sample() // one last mid-run sweep at the drained state
		for _, c := range finalCheckers {
			if detail, bad := c.fn(rt); bad {
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
	for _, p := range rt.Policers {
		res.Quarantines += p.Stats().Detections
		res.Releases += p.Stats().Releases
	}
	for _, w := range rt.Watchdogs {
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
		inj.Flap(link[0], link[1], sim.Time(f.PeriodNs), sim.Time(f.ActiveNs), dur)
	case FaultCNPLoss:
		inj.DropCNPs(fab.net.Switches()[f.Switch], f.Prob)
	case FaultCPStall:
		inj.StallCP(fab.net.Switches()[f.Switch], sim.Time(f.PeriodNs), sim.Time(f.ActiveNs), dur)
	case FaultLinkKill:
		link := fab.links[f.Link]
		inj.KillLink(link[0], link[1], sim.Time(f.AtNs), sim.Time(f.RestoreNs))
	case FaultSwitchKill:
		inj.KillSwitch(fab.net.Switches()[f.Switch], sim.Time(f.AtNs), sim.Time(f.RestoreNs))
	}
}
