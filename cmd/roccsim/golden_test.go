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

// goldenRuns lists the subcommands pinned byte-for-byte, each at a -dur
// short enough to keep the whole test a few seconds long. Between them
// they reach every Mix flow-start and wiring path the figures use.
var goldenRuns = []struct {
	name, dur string
}{
	{"fig8", "3ms"},
	{"fig9", "3ms"},
	{"fig11", "3ms"},
	{"fig12a", "3ms"},
	{"fig12b", "3ms"},
	{"fig13", "3ms"},
	{"fig14", "2ms"},
	{"table3", "2ms"},
	{"fig17", "2ms"},
	{"fig18", "2ms"},
	{"fig19", "3ms"},
	{"fig20", "2ms"},
	{"faults", "3ms"},
	{"qos", "3ms"},
	{"rollout", "3ms"},
	{"recovery", "2ms"},
	{"rogue", "3ms"},
}

// TestGoldenOutputs runs each subcommand in a child process and compares
// its stdout, minus the trailing wall-time line, with
// testdata/<name>.golden.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 17 simulations")
	}
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-dur", g.dur, g.name)
			cmd.Env = append(os.Environ(), asMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("roccsim -dur %s %s: %v\n%s", g.dur, g.name, err, stderr.Bytes())
			}
			got := dropWallTime(string(out))
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("roccsim -dur %s %s: stdout differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
					g.dur, g.name, g.name, got, want)
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
