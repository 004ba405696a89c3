package main

import (
	"strings"
	"testing"

	"rocc/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestLiveness runs both scenarios briefly over real UDP loopback and
// checks that rocclab finishes and reports each one. The rates depend on
// goroutine scheduling, so none is asserted here.
func TestLiveness(t *testing.T) {
	r := clitest.Run(t, nil, "-dur", "300ms")
	if r.Code != 0 {
		t.Fatalf("exit %d\n%s", r.Code, r.Stderr)
	}
	for _, scenario := range []string{"testbed-uni:", "testbed-mix:"} {
		n := 0
		for _, line := range strings.Split(r.Stdout, "\n") {
			if strings.HasPrefix(line, scenario) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d %q lines, want 1:\n%s", n, scenario, r.Stdout)
		}
	}
}

// TestBadRateExitsTwo: a drain rate the CP cannot take (Fmax must exceed
// the 1 Mb/s Fmin and be finite) exits 2 before any socket opens.
func TestBadRateExitsTwo(t *testing.T) {
	for _, rate := range []string{"0", "-4e8", "1e6", "NaN", "+Inf"} {
		r := clitest.Run(t, nil, "-rate", rate)
		if r.Code != 2 || r.Stdout != "" {
			t.Errorf("-rate %s: exit %d, stdout %q, want exit 2 and no output", rate, r.Code, r.Stdout)
		}
	}
}
