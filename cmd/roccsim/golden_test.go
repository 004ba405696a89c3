package main

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rocc/internal/clitest"
	"rocc/internal/experiments"
	"rocc/internal/sim"
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
	{"fig16_reps2", "-dur 2ms -reps 2 fig16", nil},
	{"table3_reps2", "-dur 2ms -reps 2 table3", nil},
	{"fig17_reps2", "-dur 2ms -reps 2 fig17", nil},
	{"fig18_reps2", "-dur 2ms -reps 2 fig18", nil},
	{"fig20_reps2", "-dur 2ms -reps 2 fig20", nil},

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
	{"fig9_metrics", "-dur 2ms -metrics fig9", nil},
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

// runArgs runs roccsim with args in this process.
func runArgs(args ...string) clitest.Result {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return clitest.Result{Stdout: stdout.String(), Stderr: stderr.String(), Code: code}
}

// checkGolden fails t unless r is a clean run whose stdout, minus the
// trailing wall-time line, is testdata/<golden>.golden.
func checkGolden(t *testing.T, golden, args string, env []string, r clitest.Result) {
	t.Helper()
	if r.Code != 0 {
		t.Fatalf("roccsim %s: exit %d\n%s", args, r.Code, r.Stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dropWallTime(r.Stdout); got != string(want) {
		t.Errorf("roccsim %s %s: stdout differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
			env, args, golden, got, want)
	}
}

// TestGoldenOutputs runs each entry of goldenRuns and compares its
// stdout with its golden. Entries with an environment run in a child
// process; the others call run in this one.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skipf("runs %d simulations", len(goldenRuns))
	}
	for _, g := range goldenRuns {
		t.Run(g.golden, func(t *testing.T) {
			t.Parallel()
			var r clitest.Result
			if args := strings.Fields(g.args); g.env != nil {
				r = clitest.Run(t, g.env, args...)
			} else {
				r = runArgs(args...)
			}
			checkGolden(t, g.golden, g.args, g.env, r)
		})
	}
}

// TestConcurrentRuns runs several cheap golden entries at once in this
// process: each must still print its golden, so runs share no state.
func TestConcurrentRuns(t *testing.T) {
	cheap := []string{"fig5", "fig7a", "table1", "fluid", "-dur 3ms qos"}
	var runs []int // indices into goldenRuns
	for i, g := range goldenRuns {
		if g.env == nil && slices.Contains(cheap, g.args) {
			runs = append(runs, i)
		}
	}
	if len(runs) != len(cheap) {
		t.Fatalf("%d of the runs %q are golden entries", len(runs), cheap)
	}
	results := make([]clitest.Result, len(runs))
	var wg sync.WaitGroup
	for k, i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k] = runArgs(strings.Fields(goldenRuns[i].args)...)
		}()
	}
	wg.Wait()
	for k, i := range runs {
		checkGolden(t, goldenRuns[i].golden, goldenRuns[i].args, nil, results[k])
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

// TestFailedCellFailsRun: a cell that panics is reported under its
// workload, the rest of the table still prints, and roccsim exits 1. The
// cells of `-dur 1ms fig14` panic on a load of -1, set past the flag check
// that refuses it.
func TestFailedCellFailsRun(t *testing.T) {
	fs := newFlagSet("roccsim fig14", io.Discard)
	j := &job{body: fctFigs(fs, "fig14")}
	j.cpuprofile, j.memprofile = bindProfiles(fs)
	if err := fs.Parse([]string{"-dur", "1ms"}); err != nil {
		t.Fatal(err)
	}
	fs.Lookup("load").Value.(*option[float64]).v = -1
	var stdout, stderr strings.Builder
	if code := j.run(&out{stdout: &stdout, stderr: &stderr}); code != 1 {
		t.Errorf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "failed: harness: cell") {
		t.Errorf("stderr does not report the failed cells:\n%s", stderr.String())
	}
	for _, wl := range []string{"WebSearch", "FB_Hadoop"} {
		if !strings.Contains(stderr.String(), wl) {
			t.Errorf("stderr does not name the failed %s cells:\n%s", wl, stderr.String())
		}
	}
	for _, row := range []string{"-- WebSearch traffic --", "-- FB_Hadoop traffic --", "(wall time "} {
		if !strings.Contains(stdout.String(), row) {
			t.Errorf("stdout lacks %q after failed cells:\n%s", row, stdout.String())
		}
	}
}

// TestGridComputesEachCellOnce counts the §6.3 cell repetitions a run
// computes: `all` prints seven §6.3 tables from 12 distinct cells (15 at
// -fanin 30, where the folds' lossless cells are not fig14's), each
// computed once per repetition, and fig18 alone computes its own 6.
func TestGridComputesEachCellOnce(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-dur 200us -reps 2 all", 24},
		{"-dur 200us -reps 2 -fanin 30 all", 30},
		{"-dur 200us -reps 2 fig18", 12},
	} {
		t.Run(tc.args, func(t *testing.T) {
			t.Parallel()
			var stderr strings.Builder
			j, code := parse(strings.Fields(tc.args), &stderr)
			if j == nil {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			o := &out{stdout: io.Discard, stderr: &stderr}
			if code := j.run(o); code != 0 || o.computed != tc.want {
				t.Errorf("roccsim %s: exit %d, %d cell repetitions computed; want exit 0 and %d\n%s",
					tc.args, code, o.computed, tc.want, stderr.String())
			}
		})
	}
}

// TestUnwritableOutputFailsRun: an output file that cannot be written is
// reported, the tables still print, and roccsim exits 1.
func TestUnwritableOutputFailsRun(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	for _, tc := range []struct {
		args   []string
		header string // the table's first line
		what   string // the stderr prefix of the failed output
	}{
		{[]string{"-csv", filepath.Join(notDir, "x"), "fluid"}, "fluid stability sweep", "csv:"},
		{[]string{"-dur", "1ms", "-trace", filepath.Join(missing, "t.json"), "fig9"}, "Fig 9:", "trace:"},
		{[]string{"-memprofile", filepath.Join(missing, "m"), "fig5"}, "Fig 5:", "memprofile:"},
	} {
		r := runArgs(tc.args...)
		if r.Code != 1 || !strings.HasPrefix(r.Stdout, tc.header) || !strings.Contains(r.Stdout, "(wall time ") ||
			!strings.HasPrefix(r.Stderr, tc.what) {
			t.Errorf("roccsim %q: exit %d, want 1 after the whole table and a %q error\nstdout:\n%s\nstderr:\n%s",
				tc.args, r.Code, tc.what, r.Stdout, r.Stderr)
		}
	}
}

// TestRogueCSV: rogue -csv writes rogue_metrics.csv, one gauge row per
// cell metric.
func TestRogueCSV(t *testing.T) {
	dir := t.TempDir()
	r := runArgs("-dur", "1ms", "-csv", dir, "rogue")
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

// TestAll runs `-dur 500us all` and checks that its stdout is each
// experiment `all` includes, run alone with the flags it declares of
// those given, followed by a blank line.
func TestAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment of all twice")
	}
	start := time.Now()
	r := runArgs("-dur", "500us", "all")
	if r.Code != 0 {
		t.Fatalf("roccsim -dur 500us all: exit %d\n%s", r.Code, r.Stderr)
	}
	// runBody is a run's stdout without the blank line and the wall-time
	// line run prints after the experiment.
	runBody := func(out string) string { return strings.TrimSuffix(dropWallTime(out), "\n") }
	var want strings.Builder
	for _, sc := range subcommands() {
		if !sc.inAll {
			continue
		}
		args := []string{sc.name}
		fs := newFlagSet(sc.name, io.Discard)
		if sc.declare(fs, sc.name); fs.Lookup("dur") != nil {
			args = append([]string{"-dur", "500us"}, args...)
		}
		alone := runArgs(args...)
		if alone.Code != 0 {
			t.Fatalf("roccsim %q: exit %d\n%s", args, alone.Code, alone.Stderr)
		}
		want.WriteString(runBody(alone.Stdout) + "\n")
	}
	got := strings.SplitAfter(runBody(r.Stdout), "\n")
	wantLines := strings.SplitAfter(want.String(), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("all differs from its experiments run alone at line %d of %d/%d:\n got: %q\nwant: %q",
				i+1, len(got), len(wantLines), at(got, i), at(wantLines, i))
		}
	}
	t.Logf("all, then each of its experiments alone: %v", time.Since(start).Round(time.Millisecond))
}

// at is lines[i], or "" past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// goldenDur is the -dur of the named golden's run.
func goldenDur(t *testing.T, golden string) sim.Time {
	for _, g := range goldenRuns {
		args := strings.Fields(g.args)
		if i := slices.Index(args, "-dur"); g.golden == golden && i >= 0 {
			d, err := time.ParseDuration(args[i+1])
			if err != nil {
				t.Fatal(err)
			}
			return sim.Time(d)
		}
	}
	t.Fatalf("no golden %q with a -dur", golden)
	return 0
}

// TestGoldenFaultRowsFire checks that every fault row of the recovery
// and faults goldens fired within its short run: fault schedules follow
// the run length, so a golden cannot pin an outage the run never reached.
// TestEmptyWindowPrintsNoNaN runs fig19 and qos at 1 ns, where every
// measurement window is empty: rates read 0 Gb/s, and the QoS ratio,
// undefined with nothing moved, is not printed as a number.
func TestEmptyWindowPrintsNoNaN(t *testing.T) {
	for args, want := range map[string]string{
		"-dur 1ns fig19": "N=1 rates: 0.00 ",
		"-dur 1ns qos":   "ratio undefined",
	} {
		r := runArgs(strings.Fields(args)...)
		if r.Code != 0 {
			t.Fatalf("roccsim %s: exit %d\n%s", args, r.Code, r.Stderr)
		}
		if strings.Contains(r.Stdout, "NaN") || !strings.Contains(r.Stdout, want) {
			t.Errorf("roccsim %s printed NaN or lacks %q:\n%s", args, want, r.Stdout)
		}
	}
}

func TestGoldenFaultRowsFire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the recovery and faults sweeps")
	}
	recovery := experiments.RecoveryConfig{Seed: 1, Duration: goldenDur(t, "recovery")}
	for _, c := range experiments.RecoveryCells(recovery) {
		if r := experiments.RunRecovery(c); r.Reconverges == 0 {
			t.Errorf("recovery %s/%s: the kill never fired", c.Protocol, c.Kill)
		}
	}
	faults := experiments.FaultsConfig{Seed: 1, Duration: goldenDur(t, "faults")}
	for _, c := range experiments.FaultsCells(faults, []float64{0.05}, 0)[1:] {
		if !experiments.RunFaults(c).Fired() {
			t.Errorf("faults %s: no fault fired", c.Label())
		}
	}
}
