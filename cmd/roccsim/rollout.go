package main

import (
	"flag"
	"fmt"
	"os"

	"rocc/internal/experiments"
	"rocc/internal/harness"
	"rocc/internal/sim"
)

var mixFlag = flag.String("mix", "", "rollout: protocol mix, e.g. rocc:0.5,dcqcn:0.5 (empty = RoCC-fraction sweep)")

// runRollout reports the incremental-rollout experiment: fractions of
// RoCC and DCQCN senders sharing one fat-tree core bottleneck, with
// per-protocol goodput, Jain fairness, and probe-flow FCT. With -mix it
// runs a single arbitrary protocol mix instead of the sweep.
func runRollout() {
	base := experiments.RolloutConfig{
		Seed:     *seedFlag,
		Duration: dur(20 * sim.Millisecond),
	}
	var cells []experiments.RolloutConfig
	var labels []string
	if *mixFlag != "" {
		shares, err := experiments.ParseMixSpec(*mixFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		base.Shares = shares
		cells, labels = append(cells, base), append(labels, *mixFlag)
		fmt.Printf("rollout: mixed-protocol fabric (%s), 2-edge fat-tree, 2:1 oversubscribed core\n", *mixFlag)
	} else {
		for _, frac := range experiments.DefaultRolloutFracs {
			cfg := base
			cfg.Shares = experiments.RoCCShares(frac)
			cells, labels = append(cells, cfg), append(labels, fmt.Sprintf("RoCC fraction %.2f", frac))
		}
		fmt.Println("rollout: RoCC fraction sweep vs DCQCN, 2-edge fat-tree, 2:1 oversubscribed core")
	}
	rs := harness.Run(cells, *workFlag, experiments.RunRollout)
	for i, label := range labels {
		if *mixFlag == "" {
			fmt.Printf("-- %s --\n", label)
		}
		fmt.Printf("  %-9s %6s %6s %10s %8s %11s %11s\n",
			"protocol", "share", "flows", "mean Gb/s", "Jain", "FCT avg ms", "FCT p99 ms")
		for _, rows := range collect("rollout "+label, rs[i:i+1]) {
			for _, r := range rows {
				fmt.Printf("  %-9s %6.2f %6d %10.2f %8.4f %11.3f %11.3f\n",
					r.Proto, r.Share, r.Flows, r.MeanGbps, r.Jain, r.FCTMeanMs, r.FCTP99Ms)
			}
		}
	}
}
