package main

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"rocc/internal/chaos"
)

// soak drives the chaos subsystem: generate scenarios from the
// campaign seed, run each under the invariant monitors on the worker
// pool, and shrink + persist any failures.
func soak(fs *flag.FlagSet, _ string) func(*out) {
	seed, workers, shards := bindSeed(fs), bindWorkers(fs), bindShards(fs)
	count := define(fs, "count", 0, "`count` of scenarios (0 = until -budget, or 100)", parseNonNeg)
	budget := define(fs, "budget", time.Duration(0), "wall-clock `budget` (0 = unlimited)", parseSpan)
	soakOut := define(fs, "soak-out", "", "`dir`ectory for minimized repros (config JSON + Chrome trace)", parseString)
	shrink := define(fs, "shrink", true, "minimize failing scenarios with delta debugging", strconv.ParseBool)
	faultScale := define(fs, "fault-scale", 1.0, "fault intensity `scale` (1 = default mix, 0 = clean scenarios)",
		check(parseFloat, atLeast(0.0), "a scale >= 0"))
	prob := func(name string, def float64, usage string) *float64 {
		return define(fs, name, def, "`probability` a scenario "+usage, check(parseFloat, isProb, "a probability in [0, 1]"))
	}
	mixProb := prob("mix-prob", 0.25, "mixes two protocols on one fabric")
	failProb := prob("fail-prob", 0, "carries a topology kill (link/switch failure + restore)")
	modeProb := prob("mode-prob", 0.25, "runs in a non-default operating mode (pfconly or cconly)")
	rogueProb := prob("rogue-prob", 0, "hosts rogue senders policed by the switch-side defenses")
	return func(o *out) {
		gen := chaos.GenOptions{FaultScale: *faultScale, MixProb: *mixProb, FailProb: *failProb, ModeProb: *modeProb, RogueProb: *rogueProb}
		if gen.FaultScale == 0 {
			gen.FaultScale = -1 // explicit clean mode (0 means "default" in GenOptions)
		}
		o.printf("soak: randomized chaos scenarios (seed %d, fault scale %g, mix prob %g, fail prob %g, mode prob %g, rogue prob %g)\n",
			*seed, *faultScale, gen.MixProb, gen.FailProb, gen.ModeProb, gen.RogueProb)
		rep := chaos.Soak(chaos.SoakOptions{
			Seed:    *seed,
			Count:   *count,
			Budget:  *budget,
			Workers: *workers,
			Gen:     gen,
			Run:     chaos.RunOptions{Shards: *shards},
			Shrink:  *shrink,
			OutDir:  *soakOut,
			OnScenario: func(v chaos.Verdict) {
				status := "ok"
				if v.Err != "" {
					status = "ERROR " + v.Err
				} else if len(v.Result.Violations) > 0 {
					status = fmt.Sprintf("VIOLATED %s at %.3f ms (%s)",
						v.Result.Violations[0].Invariant,
						float64(v.Result.Violations[0].AtNs)/1e6,
						v.Result.Violations[0].Detail)
				}
				rogues := ""
				if v.Rogues > 0 {
					rogues = fmt.Sprintf(" rogues=%d", v.Rogues)
				}
				o.printf("  #%-4d seed=%-6d %-14s %-16s %-8s flows=%-3d faults=%-2d%s %s\n",
					v.Index, v.Seed, v.ProtocolLabel(), v.Topology, v.ModeLabel(), v.Flows, v.Faults, rogues, status)
			},
		})
		o.printf("soak: %d scenarios (%d mixed-protocol, %d non-default mode, %d rogue-laden), %d failures\n",
			rep.Scenarios, rep.Mixed, rep.Moded, rep.Rogued, rep.Failures)
		for _, r := range rep.Repros {
			orig, min := r.Shrink.Original, r.Shrink.Minimized
			o.printf("  repro seed=%d invariant=%s: %d flows/%d faults -> %d flows/%d faults in %d runs",
				r.Seed, r.Invariant, len(orig.Flows), len(orig.Faults), len(min.Flows), len(min.Faults), r.Shrink.Runs)
			if r.ConfigPath != "" {
				o.printf("  (%s, %s)", r.ConfigPath, r.TracePath)
			}
			o.println()
		}
		if rep.Failures > 0 {
			o.failed = true
		}
	}
}
