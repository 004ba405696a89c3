package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rocc/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// goldenRuns lists the runs pinned byte-for-byte: a golden file name
// under testdata/, roccsim's arguments and any extra environment, each at
// a -dur short enough to keep the whole test a few seconds long. Between
// them they reach every subcommand, every Mix flow-start and wiring path
// the figures use, and the flag branches that change a table; the -reps 2
// runs reach every repetition merge (series, Fig 11 rows, FCT bins,
// Table 3 means, Fig 17 tier sums, fold pairs). Runs that share a golden
// file differ only in -workers, -shards or GOMAXPROCS, none of which may
// move an output byte (DESIGN.md §14's one event order).
var goldenRuns = []struct {
	golden, args string
	env          []string
}{
	{"fig8", "-dur 3ms fig8", nil},
	{"fig9", "-dur 3ms fig9", nil},
	{"fig11", "-dur 3ms fig11", nil},
	{"fig12a", "-dur 3ms fig12a", nil},
	{"fig12a", "-dur 3ms -workers 1 fig12a", nil},
	{"fig12b", "-dur 3ms fig12b", nil},
	{"fig13", "-dur 3ms fig13", nil},
	{"fig14", "-dur 2ms fig14", nil},
	{"fig15", "-dur 2ms fig15", nil},
	{"fig16", "-dur 2ms fig16", nil},
	{"table3", "-dur 2ms table3", nil},
	{"fig17", "-dur 2ms fig17", nil},
	{"fig18", "-dur 2ms fig18", nil},
	{"fig19", "-dur 3ms fig19", nil},
	{"fig20", "-dur 2ms fig20", nil},
	{"faults", "-dur 3ms faults", nil},
	{"qos", "-dur 3ms qos", nil},
	{"rollout", "-dur 3ms rollout", nil},
	{"recovery", "-dur 2ms recovery", nil},
	{"rogue", "-dur 3ms rogue", nil},
	{"collective", "-dur 5ms -msg 65536 -iters 1 -ranks 4 collective", nil},
	{"fig8_reps2", "-dur 3ms -reps 2 fig8", nil},
	{"fig11_reps2", "-dur 3ms -reps 2 fig11", nil},
	{"fig11_reps2", "-dur 3ms -reps 2 -workers 1 fig11", nil},
	{"fig14_reps2", "-dur 2ms -reps 2 fig14", nil},
	{"table3_reps2", "-dur 2ms -reps 2 table3", nil},
	{"fig17_reps2", "-dur 2ms -reps 2 fig17", nil},
	{"fig18_reps2", "-dur 2ms -reps 2 fig18", nil},

	// The pure subcommands and the fluid sweep.
	{"fig5", "fig5", nil},
	{"fig6", "fig6", nil},
	{"fig7a", "fig7a", nil},
	{"fig7b", "fig7b", nil},
	{"table1", "table1", nil},
	{"fluid", "fluid", nil},
	{"fluid", "-workers 1 fluid", nil},

	// One event order: the same bytes on one core, on two, and on two
	// engine shards.
	{"fig14", "-dur 2ms fig14", []string{"GOMAXPROCS=1"}},
	{"fig14", "-dur 2ms fig14", []string{"GOMAXPROCS=2"}},
	{"fig14", "-dur 2ms -shards 2 fig14", nil},

	// Flag branches that change what a table runs.
	{"faults_cnploss", "-dur 3ms -cnp-loss 0.1 faults", nil},
	{"faults_flap", "-dur 8ms -link-flap 4ms faults", nil},
	{"rollout_mix", "-dur 3ms -mix rocc:0.5,dcqcn:0.5 rollout", nil},
	{"collective_pfconly", "-dur 5ms -msg 65536 -iters 1 -ranks 4 -coll-mode pfconly collective", nil},
	{"collective_killlink", "-dur 5ms -msg 65536 -iters 1 -ranks 4 -kill link collective", nil},
	{"fig14_load50", "-dur 2ms -load 0.5 fig14", nil},
	{"fig18_fanin30", "-dur 2ms -fanin 30 fig18", nil},
	{"fig8_dcqcn", "-dur 3ms -protocol dcqcn fig8", nil},
	{"fig9_dcqcn", "-dur 3ms -protocol dcqcn fig9", nil},
	{"rogue_blast", "-dur 3ms -rogue-kind blast rogue", nil},

	// The chaos soak campaigns CI smokes, at small counts, and one re-run
	// on four workers and two engine shards.
	{"soak", "-seed 1 -count 16 soak", nil},
	{"soak", "-seed 1 -count 16 -workers 4 -shards 2 soak", nil},
	{"soak_mix", "-seed 1 -count 12 -mix-prob 1 soak", nil},
	{"soak_fail", "-seed 7 -count 12 -fail-prob 1 soak", nil},
	{"soak_mode", "-seed 3 -count 12 -mode-prob 1 soak", nil},
	{"soak_rogue", "-seed 777 -count 12 -rogue-prob 1 soak", nil},
}

// TestGoldenOutputs runs each entry of goldenRuns in a child process and
// compares its stdout, minus the trailing wall-time line, with
// testdata/<golden>.golden.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skipf("runs %d simulations", len(goldenRuns))
	}
	for _, g := range goldenRuns {
		t.Run(g.golden, func(t *testing.T) {
			t.Parallel()
			r := clitest.Run(t, g.env, strings.Fields(g.args)...)
			if r.Code != 0 {
				t.Fatalf("roccsim %s: exit %d\n%s", g.args, r.Code, r.Stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := dropWallTime(r.Stdout); got != string(want) {
				t.Errorf("roccsim %s %s: stdout differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
					g.env, g.args, g.golden, got, want)
			}
		})
	}
}

// dropWallTime removes the "(wall time …)" line, the only part of
// roccsim's stdout that depends on the host.
func dropWallTime(out string) string {
	lines := strings.SplitAfter(out, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "(wall time ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

// TestFailedCellFailsRun: a cell that panics is reported, the rest of the
// table still prints, and roccsim exits 1.
func TestFailedCellFailsRun(t *testing.T) {
	r := clitest.Run(t, nil, strings.Fields("-dur 1ms -load -1 fig14")...)
	if r.Code != 1 {
		t.Errorf("exit %d, want 1\nstderr:\n%s", r.Code, r.Stderr)
	}
	if !strings.Contains(r.Stderr, "failed: harness: cell") {
		t.Errorf("stderr does not report the failed cells:\n%s", r.Stderr)
	}
	for _, row := range []string{"-- WebSearch traffic --", "-- FB_Hadoop traffic --", "(wall time "} {
		if !strings.Contains(r.Stdout, row) {
			t.Errorf("stdout lacks %q after failed cells:\n%s", row, r.Stdout)
		}
	}
}

// TestBadFlagsExitTwo: a flag value the run cannot honour is a usage
// error at parse time, never a panic inside a cell.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range []string{
		"-dur 1ms -cnp-loss 2 faults",
		"-dur 1ms -cnp-loss -0.5 faults",
		"-dur 1ms -link-flap -1ms faults",
		"-dur 1ms -ranks 2 -kill bogus collective",
		"nosuchfig",
		"fig8 fig9",
		// Run-wide flags the subcommand does not read.
		"-shards 2 fig8",
		"-reps 5 fig9",
		"-protocol dcqcn fig11",
		"-trace t.json fig14",
	} {
		r := clitest.Run(t, nil, strings.Fields(args)...)
		if r.Code != 2 || strings.Contains(r.Stderr, "panic:") || r.Stdout != "" {
			t.Errorf("roccsim %s: exit %d, stdout %q; want exit 2, no output and no panic\nstderr:\n%s",
				args, r.Code, r.Stdout, r.Stderr)
		}
	}
}

func TestCheckFaultFlags(t *testing.T) {
	for _, tc := range []struct {
		cnpLoss float64
		flapMs  int
		kill    string
		ok      bool
	}{
		{-1, 0, "none", true}, // the defaults
		{0, 0, "none", true},
		{0.1, 4, "link", true},
		{1, 0, "none", true},
		{1.5, 0, "none", false},
		{-0.5, 0, "none", false},
		{-2, 0, "none", false},
		{0.1, -1, "none", false},
		{0.1, 0, "bogus", false},
		{0.1, 0, "", false},
		{0.1, 0, "switch", false}, // recovery's kill kind, not the collective's
	} {
		err := checkFaultFlags(tc.cnpLoss, time.Duration(tc.flapMs)*time.Millisecond, tc.kill)
		if (err == nil) != tc.ok {
			t.Errorf("checkFaultFlags(%g, %dms, %q) = %v; want ok=%v", tc.cnpLoss, tc.flapMs, tc.kill, err, tc.ok)
		}
	}
}

// TestRogueCSV: rogue -csv writes rogue_metrics.csv, one gauge row per
// cell metric.
func TestRogueCSV(t *testing.T) {
	dir := t.TempDir()
	r := clitest.Run(t, nil, "-dur", "1ms", "-csv", dir, "rogue")
	if r.Code != 0 {
		t.Fatalf("exit %d\n%s", r.Code, r.Stderr)
	}
	f, err := os.Open(filepath.Join(dir, "rogue_metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 7 protocols × K ∈ {1, 2, 4} × defense off/on, 10 metrics each.
	var gauges int
	for _, row := range rows {
		if row[0] == "gauge" && strings.HasPrefix(row[1], "rogue.") {
			gauges++
		}
	}
	if gauges != 7*3*2*10 {
		t.Errorf("%d rogue gauges in rogue_metrics.csv, want %d:\n%v", gauges, 7*3*2*10, rows)
	}
}
