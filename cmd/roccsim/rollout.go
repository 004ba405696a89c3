package main

import (
	"flag"
	"fmt"

	"rocc/internal/experiments"
)

// rollout reports the incremental-rollout experiment: fractions of
// RoCC and DCQCN senders sharing one fat-tree core bottleneck, with
// per-protocol goodput, Jain fairness, and probe-flow FCT. With -mix it
// runs a single arbitrary protocol mix instead of the sweep.
func rollout(fs *flag.FlagSet, _ string) func(*out) {
	s := bindSweep(fs)
	mixFlag := define(fs, "mix", "", "protocol `mix`, e.g. rocc:0.5,dcqcn:0.5 (empty = RoCC-fraction sweep)",
		func(m string) (string, error) {
			if m == "" {
				return m, nil
			}
			_, err := experiments.ParseMixSpec(m)
			return m, err
		})
	return func(o *out) {
		base := experiments.RolloutConfig{
			Seed:     *s.seed,
			Duration: s.dur(),
		}
		var cells []experiments.RolloutConfig
		var labels []string
		if mix := *mixFlag; mix != "" {
			base.Shares, _ = experiments.ParseMixSpec(mix) // checked when -mix was parsed
			cells, labels = append(cells, base), append(labels, mix)
			o.printf("rollout: mixed-protocol fabric (%s), 2-edge fat-tree, 2:1 oversubscribed core\n", mix)
		} else {
			for _, frac := range experiments.DefaultRolloutFracs {
				cfg := base
				cfg.Shares = experiments.RoCCShares(frac)
				cells, labels = append(cells, cfg), append(labels, fmt.Sprintf("RoCC fraction %.2f", frac))
			}
			o.println("rollout: RoCC fraction sweep vs DCQCN, 2-edge fat-tree, 2:1 oversubscribed core")
		}
		vals := table(o, s, 1, cells, nil,
			func(c experiments.RolloutConfig) string { return fmt.Sprint("rollout ", c.Shares) }, experiments.RunRollout)
		for i, label := range labels {
			if *mixFlag == "" {
				o.printf("-- %s --\n", label)
			}
			o.printf("  %-9s %6s %6s %10s %8s %11s %11s\n",
				"protocol", "share", "flows", "mean Gb/s", "Jain", "FCT avg ms", "FCT p99 ms")
			for _, rows := range vals[i] {
				for _, r := range rows {
					o.printf("  %-9s %6.2f %6d %10.2f %8.4f %11.3f %11.3f\n",
						r.Proto, r.Share, r.Flows, r.MeanGbps, r.Jain, r.FCTMeanMs, r.FCTP99Ms)
				}
			}
		}
	}
}
