package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv, when set in a child's environment, makes this test binary
// run roccsim's main with the child's arguments instead of the tests.
const asMainEnv = "ROCCSIM_GOLDEN_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenRuns lists the runs pinned byte-for-byte: a golden file name
// under testdata/ and roccsim's arguments, each at a -dur short enough to
// keep the whole test a few seconds long. Between them they reach every
// Mix flow-start and wiring path the figures use, and the -reps 2 runs
// reach every repetition merge (series, Fig 11 rows, FCT bins, Table 3
// means, Fig 17 tier sums, fold pairs). Runs that share a golden file
// differ only in -workers, which must never move an output byte.
var goldenRuns = []struct {
	golden, args string
}{
	{"fig8", "-dur 3ms fig8"},
	{"fig9", "-dur 3ms fig9"},
	{"fig11", "-dur 3ms fig11"},
	{"fig12a", "-dur 3ms fig12a"},
	{"fig12a", "-dur 3ms -workers 1 fig12a"},
	{"fig12b", "-dur 3ms fig12b"},
	{"fig13", "-dur 3ms fig13"},
	{"fig14", "-dur 2ms fig14"},
	{"fig15", "-dur 2ms fig15"},
	{"fig16", "-dur 2ms fig16"},
	{"table3", "-dur 2ms table3"},
	{"fig17", "-dur 2ms fig17"},
	{"fig18", "-dur 2ms fig18"},
	{"fig19", "-dur 3ms fig19"},
	{"fig20", "-dur 2ms fig20"},
	{"faults", "-dur 3ms faults"},
	{"qos", "-dur 3ms qos"},
	{"rollout", "-dur 3ms rollout"},
	{"recovery", "-dur 2ms recovery"},
	{"rogue", "-dur 3ms rogue"},
	{"collective", "-dur 5ms -msg 65536 -iters 1 -ranks 4 collective"},
	{"fig8_reps2", "-dur 3ms -reps 2 fig8"},
	{"fig11_reps2", "-dur 3ms -reps 2 fig11"},
	{"fig11_reps2", "-dur 3ms -reps 2 -workers 1 fig11"},
	{"fig14_reps2", "-dur 2ms -reps 2 fig14"},
	{"table3_reps2", "-dur 2ms -reps 2 table3"},
	{"fig17_reps2", "-dur 2ms -reps 2 fig17"},
	{"fig18_reps2", "-dur 2ms -reps 2 fig18"},
}

// TestGoldenOutputs runs each entry of goldenRuns in a child process and
// compares its stdout, minus the trailing wall-time line, with
// testdata/<golden>.golden.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 28 simulations")
	}
	for _, g := range goldenRuns {
		t.Run(g.golden, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0], strings.Fields(g.args)...)
			cmd.Env = append(os.Environ(), asMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("roccsim %s: %v\n%s", g.args, err, stderr.Bytes())
			}
			got := dropWallTime(string(out))
			want, err := os.ReadFile(filepath.Join("testdata", g.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("roccsim %s: stdout differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
					g.args, g.golden, got, want)
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
