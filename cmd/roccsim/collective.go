package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rocc/internal/collective"
	"rocc/internal/export"
	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

var (
	patternFlag  = flag.String("pattern", "ring", "collective: pattern (ring|tree|alltoall|ps)")
	ranksFlag    = flag.Int("ranks", 8, "collective: participant count (ps adds one server rank)")
	msgFlag      = flag.Int64("msg", 1<<20, "collective: message bytes per participant")
	chunksFlag   = flag.Int("chunks", 2, "collective: chunks the message is pipelined into")
	itersFlag    = flag.Int("iters", 4, "collective: iterations (training steps)")
	collModeFlag = flag.String("coll-mode", "", "collective: run one operating mode (hybrid|pfconly|cconly) instead of sweeping all three")
	killFlag     = flag.String("kill", "none", "collective: fault injection (none|link = kill an uplink mid-run and restore it)")
)

// runCollective sweeps a dependency-structured collective across every
// protocol × operating mode and prints the completion-time table — the
// "which stacks can you train on" headline.
func runCollective() {
	pat, err := collective.ParsePattern(*patternFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base := collective.ExpConfig{
		Collective: collective.Config{
			Pattern:      pat,
			Participants: *ranksFlag,
			MessageBytes: *msgFlag,
			Chunks:       *chunksFlag,
			Iterations:   *itersFlag,
		},
		Kill: *killFlag,
		Seed: *seedFlag,
	}
	if *durFlag > 0 {
		base.Deadline = sim.Time(durFlag.Nanoseconds())
	}
	modes := netsim.AllOperatingModes()
	if *collModeFlag != "" {
		m, err := netsim.ParseOperatingMode(*collModeFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		modes = []netsim.OperatingMode{m}
	}

	cells := collective.Cells(base, modes)
	filled := base.Filled()
	fmt.Printf("collective: %s, %d ranks x %s x %d chunks, %d iters, fat-tree 2x2 (kill %s, deadline %.0f ms)\n",
		filled.Collective.Pattern, filled.Collective.Participants,
		sizeLabel(int(filled.Collective.MessageBytes)), filled.Collective.Chunks,
		filled.Collective.Iterations, filled.Kill, filled.Deadline.Seconds()*1e3)
	fmt.Println("  cell = iteration completion time p50/p99 (ms); modes that cannot finish show why")

	rs := harness.Run(cells, *workFlag, collective.RunExp)

	results := make([]collective.ExpResult, 0, len(rs))
	fmt.Printf("  %-9s", "protocol")
	for _, m := range modes {
		fmt.Printf(" %-22s", m)
	}
	fmt.Println()
	for i, c := range cells {
		if i%len(modes) == 0 {
			fmt.Printf("  %-9s", c.Protocol)
		}
		label := "error"
		for _, v := range collect(fmt.Sprintf("collective %s/%s", c.Protocol, c.Mode), rs[i:i+1]) {
			results = append(results, v)
			label = cellLabel(v)
		}
		fmt.Printf(" %-22s", label)
		if i%len(modes) == len(modes)-1 {
			fmt.Println()
		}
	}

	fmt.Printf("  %-9s %-8s %-9s %5s %10s %8s %10s\n",
		"protocol", "mode", "done", "drops", "pfc", "retx KB", "strag p99")
	for _, v := range results {
		done := fmt.Sprintf("%d/%d", v.Run.Completed, v.Config.Collective.Iterations)
		fmt.Printf("  %-9s %-8s %-9s %5d %10d %8.0f %8.0fus\n",
			v.Config.Protocol, v.Config.Mode, done,
			v.Drops, v.PFCFrames, float64(v.RetxBytes)/1e3, v.StragglerP99/1e3)
	}

	emitCollectiveCSV(results)
}

// cellLabel renders one table cell: p50/p99 for completed collectives,
// the failure signature otherwise.
func cellLabel(v collective.ExpResult) string {
	if v.Deadlock != "" {
		return "DEADLOCK"
	}
	if v.Stalled() {
		return fmt.Sprintf("stall@i%d/s%d", v.Run.PendingIter, v.Run.PendingStep)
	}
	return fmt.Sprintf("%.2f/%.2f", v.IterP50/1e6, v.IterP99/1e6)
}

// emitCollectiveCSV writes the sweep summary and the long-form per-step
// records into the -csv directory.
func emitCollectiveCSV(results []collective.ExpResult) {
	if *csvFlag == "" || len(results) == 0 {
		return
	}
	if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	write := func(name string, fn func(f *os.File) error) {
		f, err := os.Create(filepath.Join(*csvFlag, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			return
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
		}
	}
	write("collective.csv", func(f *os.File) error {
		return export.CollectiveSummary(f, results...)
	})
	write("collective_steps.csv", func(f *os.File) error {
		return export.CollectiveSteps(f, results...)
	})
	// One metrics snapshot per cell, long-form, reusing the registry
	// exporter: kind,name,value rows with the collective.* histograms.
	write("collective_metrics.csv", func(f *os.File) error {
		for _, v := range results {
			if _, err := fmt.Fprintf(f, "# %s %s\n", v.Config.Protocol, v.Config.Mode); err != nil {
				return err
			}
			if err := export.Metrics(f, v.Metrics); err != nil {
				return err
			}
		}
		return nil
	})
}
