package main

import (
	"flag"
	"fmt"
	"io"

	"rocc/internal/collective"
	"rocc/internal/export"
	"rocc/internal/netsim"
)

// collectiveExp sweeps a dependency-structured collective across every
// protocol × operating mode and prints the completion-time table — the
// "which stacks can you train on" headline.
func collectiveExp(fs *flag.FlagSet, _ string) func(*out) {
	s, csv := bindSweep(fs), bindCSV(fs)
	pattern := define(fs, "pattern", collective.Ring, "collective `pattern` (ring|tree|alltoall|ps)", collective.ParsePattern)
	ranks := define(fs, "ranks", 8, "participant `count` (ps adds one server rank)", check(parseInt, atLeast(2), "at least 2 ranks"))
	msg := define(fs, "msg", int64(1<<20), "message `bytes` per participant", check(parseInt64, atLeast[int64](1), "a value >= 1"))
	chunks := define(fs, "chunks", 2, "`count` of chunks the message is pipelined into", parsePositive)
	iters := define(fs, "iters", 4, "`count` of iterations (training steps)", parsePositive)
	modes := define(fs, "coll-mode", netsim.AllOperatingModes(), "run one operating `mode` (hybrid|pfconly|cconly), not all three",
		func(s string) ([]netsim.OperatingMode, error) {
			if s == "" {
				return netsim.AllOperatingModes(), nil
			}
			m, err := netsim.ParseOperatingMode(s)
			return []netsim.OperatingMode{m}, err
		})
	kill := define(fs, "kill", collective.KillNone, "fault injection `kind` (none|link = kill an uplink mid-run and restore it)",
		check(parseString, func(k string) bool { return k == collective.KillNone || k == collective.KillLink }, "none or link"))
	return func(o *out) {
		base := collective.ExpConfig{
			Collective: collective.Config{
				Pattern:      *pattern,
				Participants: *ranks,
				MessageBytes: *msg,
				Chunks:       *chunks,
				Iterations:   *iters,
			},
			Kill:     *kill,
			Seed:     *s.seed,
			Deadline: s.dur(),
		}
		modes := *modes

		cells := collective.Cells(base, modes)
		filled := base.Filled()
		o.printf("collective: %s, %d ranks x %s x %d chunks, %d iters, fat-tree 2x2 (kill %s, deadline %.0f ms)\n",
			filled.Collective.Pattern, filled.Collective.Participants,
			sizeLabel(int(filled.Collective.MessageBytes)), filled.Collective.Chunks,
			filled.Collective.Iterations, filled.Kill, filled.Deadline.Seconds()*1e3)
		o.println("  cell = iteration completion time p50/p99 (ms); modes that cannot finish show why")

		vals := table(o, s, 1, cells, nil,
			func(c collective.ExpConfig) string { return fmt.Sprintf("collective %s/%s", c.Protocol, c.Mode) }, collective.RunExp)

		var results []collective.ExpResult
		o.printf("  %-9s", "protocol")
		for _, m := range modes {
			o.printf(" %-22s", m)
		}
		o.println()
		for i, c := range cells {
			if i%len(modes) == 0 {
				o.printf("  %-9s", c.Protocol)
			}
			label := "error"
			for _, v := range vals[i] {
				results = append(results, v)
				label = cellLabel(v)
			}
			o.printf(" %-22s", label)
			if i%len(modes) == len(modes)-1 {
				o.println()
			}
		}

		o.printf("  %-9s %-8s %-9s %5s %10s %8s %10s\n",
			"protocol", "mode", "done", "drops", "pfc", "retx KB", "strag p99")
		for _, v := range results {
			done := fmt.Sprintf("%d/%d", v.Run.Completed, v.Config.Collective.Iterations)
			o.printf("  %-9s %-8s %-9s %5d %10d %8.0f %8.0fus\n",
				v.Config.Protocol, v.Config.Mode, done,
				v.Drops, v.PFCFrames, float64(v.RetxBytes)/1e3, v.StragglerP99/1e3)
		}

		emitCollectiveCSV(o, *csv, results)
	}
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
func emitCollectiveCSV(o *out, dir string, results []collective.ExpResult) {
	if dir == "" || len(results) == 0 {
		return
	}
	o.writeCSV(dir, "collective.csv", func(w io.Writer) error {
		return export.CollectiveSummary(w, results...)
	})
	o.writeCSV(dir, "collective_steps.csv", func(w io.Writer) error {
		return export.CollectiveSteps(w, results...)
	})
	// One metrics snapshot per cell, long-form, reusing the registry
	// exporter: kind,name,value rows with the collective.* histograms.
	o.writeCSV(dir, "collective_metrics.csv", func(w io.Writer) error {
		for _, v := range results {
			if _, err := fmt.Fprintf(w, "# %s %s\n", v.Config.Protocol, v.Config.Mode); err != nil {
				return err
			}
			if err := export.Metrics(w, v.Metrics); err != nil {
				return err
			}
		}
		return nil
	})
}
