package main

import (
	"strings"
	"testing"

	"rocc/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestLiveness runs both scenarios briefly over real UDP loopback and
// checks that rocclab finishes and reports each one, with the switch's
// measured forwarding rate. The rates depend on goroutine scheduling, so
// none is asserted here.
func TestLiveness(t *testing.T) {
	r := clitest.Run(t, nil, "-dur", "300ms")
	if r.Code != 0 {
		t.Fatalf("exit %d\n%s", r.Code, r.Stderr)
	}
	for _, prefix := range []string{"testbed-uni:", "testbed-mix:"} {
		if n := strings.Count(r.Stdout, "\n"+prefix); n != 1 {
			t.Errorf("%d %q lines, want 1:\n%s", n, prefix, r.Stdout)
		}
	}
	if n := strings.Count(r.Stdout, "\n  (switch forwarded "); n != 2 {
		t.Errorf("%d forwarding-rate lines, want one per scenario:\n%s", n, r.Stdout)
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
