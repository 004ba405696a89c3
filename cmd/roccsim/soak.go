package main

import (
	"flag"
	"fmt"

	"rocc/internal/chaos"
)

var (
	countFlag     = flag.Int("count", 0, "soak: number of scenarios (0 = until -budget, or 100)")
	budgetFlag    = flag.Duration("budget", 0, "soak: wall-clock budget (0 = unlimited)")
	soakOutFlag   = flag.String("soak-out", "", "soak: directory for minimized repros (config JSON + Chrome trace)")
	shrinkFlag    = flag.Bool("shrink", true, "soak: minimize failing scenarios with delta debugging")
	faultFlag     = flag.Float64("fault-scale", 1, "soak: fault intensity (1 = default mix, 0 = clean scenarios)")
	mixProbFlag   = flag.Float64("mix-prob", 0.25, "soak: probability a scenario mixes two protocols on one fabric")
	failProbFlag  = flag.Float64("fail-prob", 0, "soak: probability a scenario carries a topology kill (link/switch failure + restore)")
	modeProbFlag  = flag.Float64("mode-prob", 0.25, "soak: probability a scenario runs in a non-default operating mode (pfconly or cconly)")
	rogueProbFlag = flag.Float64("rogue-prob", 0, "soak: probability a scenario hosts rogue senders policed by the switch-side defenses")
)

// runSoak drives the chaos subsystem: generate scenarios from the
// campaign seed, run each under the invariant monitors on the worker
// pool, and shrink + persist any failures.
func runSoak() {
	gen := chaos.GenOptions{FaultScale: *faultFlag, MixProb: *mixProbFlag, FailProb: *failProbFlag, ModeProb: *modeProbFlag, RogueProb: *rogueProbFlag}
	if *faultFlag == 0 {
		gen.FaultScale = -1 // explicit clean mode (0 means "default" in GenOptions)
	}
	fmt.Printf("soak: randomized chaos scenarios (seed %d, fault scale %g, mix prob %g, fail prob %g, mode prob %g, rogue prob %g)\n",
		*seedFlag, *faultFlag, *mixProbFlag, *failProbFlag, *modeProbFlag, *rogueProbFlag)
	opts := chaos.SoakOptions{
		Seed:    *seedFlag,
		Count:   *countFlag,
		Budget:  *budgetFlag,
		Workers: *workFlag,
		Gen:     gen,
		Run:     chaos.RunOptions{Shards: *shardsFlag},
		Shrink:  *shrinkFlag,
		OutDir:  *soakOutFlag,
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
			fmt.Printf("  #%-4d seed=%-6d %-14s %-16s %-8s flows=%-3d faults=%-2d%s %s\n",
				v.Index, v.Seed, v.ProtocolLabel(), v.Topology, v.ModeLabel(), v.Flows, v.Faults, rogues, status)
		},
	}
	rep := chaos.Soak(opts)
	fmt.Printf("soak: %d scenarios (%d mixed-protocol, %d non-default mode, %d rogue-laden), %d failures\n",
		rep.Scenarios, rep.Mixed, rep.Moded, rep.Rogued, rep.Failures)
	for _, r := range rep.Repros {
		o, m := r.Shrink.Original, r.Shrink.Minimized
		fmt.Printf("  repro seed=%d invariant=%s: %d flows/%d faults -> %d flows/%d faults in %d runs",
			r.Seed, r.Invariant, len(o.Flows), len(o.Faults), len(m.Flows), len(m.Faults), r.Shrink.Runs)
		if r.ConfigPath != "" {
			fmt.Printf("  (%s, %s)", r.ConfigPath, r.TracePath)
		}
		fmt.Println()
	}
	if rep.Failures > 0 {
		failed = true
	}
}
