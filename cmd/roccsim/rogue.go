package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rocc/internal/adversary"
	"rocc/internal/experiments"
	"rocc/internal/export"
	"rocc/internal/harness"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

var rogueKindFlag = flag.String("rogue-kind", "",
	"rogue: rogue behaviour (cnpdeaf|ecnblind|blast; default cnpdeaf, adapted per protocol)")

// runRogueExp sweeps every protocol × rogue count × defense state
// through the rogue-containment benchmark: K feedback-deaf senders
// against honest victims on a shared bottleneck, with and without the
// switch-side defenses (compliance policer, PFC storm watchdog, RoCC
// forged-feedback hardening).
func runRogueExp() {
	base := experiments.RogueConfig{Seed: *seedFlag}
	if *durFlag > 0 {
		base.Duration = sim.Time(durFlag.Nanoseconds())
	}
	if *rogueKindFlag != "" {
		kind, err := adversary.ParseRogueKind(*rogueKindFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rogue:", err)
			os.Exit(2)
		}
		base.Kind = kind
	}
	cfg := base.Filled()
	fmt.Printf("rogue containment: %d victims + K %s rogues on a %.0fG star, %.0f ms, goodput over the second half\n",
		cfg.Victims, cfg.Kind, cfg.LinkRate.Gbps(), cfg.Duration.Seconds()*1e3)
	cells := experiments.RogueCells(base)
	rs := harness.Run(cells, *workFlag, experiments.RunRogue)
	fmt.Printf("  %-8s %2s %-9s %12s %11s %6s %9s %5s %5s %7s %6s %6s\n",
		"protocol", "K", "defense", "victim Gb/s", "rogue Gb/s", "jain", "probe us", "det", "rel", "pdrops", "wtrips", "spoof")
	var results []experiments.RogueResult
	for i, c := range cells {
		for _, v := range collect(fmt.Sprintf("rogue %s/K=%d", c.Protocol, c.Rogues), rs[i:i+1]) {
			results = append(results, v)
			def := "off"
			if v.Config.Defended {
				def = "on"
			}
			probe := "never"
			if v.ProbeFCT >= 0 {
				probe = fmt.Sprintf("%.0f", v.ProbeFCT.Seconds()*1e6)
			}
			fmt.Printf("  %-8s %2d %-9s %12.2f %11.2f %6.3f %9s %5d %5d %7d %6d %6d\n",
				v.Config.Protocol, v.Config.Rogues, def, v.VictimGbps, v.RogueGbps,
				v.JainVictims, probe, v.Detections, v.Releases, v.PolicedDrops,
				v.WatchdogTrips, v.SpoofRejects)
		}
	}
	writeRogueMetrics(results)
}

// writeRogueMetrics exports the sweep as rogue_metrics.csv when -csv is
// set: one gauge per cell metric, named rogue.<proto>.k<K>.<def>.<what>.
func writeRogueMetrics(results []experiments.RogueResult) {
	if *csvFlag == "" {
		return
	}
	reg := telemetry.New()
	for _, v := range results {
		def := "undefended"
		if v.Config.Defended {
			def = "defended"
		}
		prefix := fmt.Sprintf("rogue.%s.k%d.%s.", v.Config.Protocol, v.Config.Rogues, def)
		for _, m := range []struct {
			name  string
			value float64
		}{
			{"victim_gbps", v.VictimGbps},
			{"rogue_gbps", v.RogueGbps},
			{"jain_victims", v.JainVictims},
			{"probe_fct_us", v.ProbeFCT.Seconds() * 1e6},
			{"detections", float64(v.Detections)},
			{"releases", float64(v.Releases)},
			{"quarantined", float64(v.Quarantined)},
			{"policed_drops", float64(v.PolicedDrops)},
			{"watchdog_trips", float64(v.WatchdogTrips)},
			{"spoof_rejects", float64(v.SpoofRejects)},
		} {
			val := m.value
			reg.GaugeFunc(prefix+m.name, func() float64 { return val })
		}
	}
	if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	f, err := os.Create(filepath.Join(*csvFlag, "rogue_metrics.csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer f.Close()
	if err := export.Metrics(f, reg.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
	}
}
