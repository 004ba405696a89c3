package main

import "testing"

func TestCheckShards(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{1, true},
		{2, true},
		{8, true},
		{0, false},  // was: the single-loop engine
		{-1, false}, // was: auto from GOMAXPROCS
		{-8, false},
	} {
		err := checkShards(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("checkShards(%d) = %v; want ok=%v", tc.n, err, tc.ok)
		}
		if err != nil && err.Error() == "" {
			t.Errorf("checkShards(%d): empty error message", tc.n)
		}
	}
}

func TestCheckTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		asked bool
		ok    bool
	}{
		{"fig8", true, true},
		{"fig9", true, true},
		{"all", true, true},
		{"fig14", false, true}, // no flag, nothing to check
		{"fig14", true, false},
		{"fig13", true, false},
		{"collective", true, false},
		{"soak", true, false},
	} {
		err := checkTelemetry(tc.name, tc.asked)
		if (err == nil) != tc.ok {
			t.Errorf("checkTelemetry(%q, %v) = %v; want ok=%v", tc.name, tc.asked, err, tc.ok)
		}
	}
}
