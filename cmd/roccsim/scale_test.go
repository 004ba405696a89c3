package main

import (
	"strings"
	"testing"
)

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

func TestCheckRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  string
		ok   bool
	}{
		// -trace and -metrics: fig8, fig9 and all record telemetry.
		{"fig8", "trace metrics", true},
		{"fig9", "trace", true},
		{"all", "trace metrics", true},
		{"fig14", "", true}, // no flag, nothing to check
		{"fig14", "trace", false},
		{"fig13", "metrics", false},
		{"collective", "trace", false},
		{"soak", "metrics", false},
		// -shards: the fat-tree tables and soak.
		{"fig14", "shards", true},
		{"fig20", "shards", true},
		{"table3", "shards reps", true},
		{"soak", "shards workers count", true},
		{"all", "shards", true},
		{"fig8", "shards", false},
		{"scale", "shards", false},
		// -reps: the repeated tables.
		{"fig8", "reps", true},
		{"fig11", "reps", true},
		{"fig18", "reps fanin", true},
		{"fig9", "reps", false},
		{"fig12a", "reps", false},
		{"soak", "reps", false},
		// -protocol: fig8, fig9 and scale.
		{"fig8", "protocol dur", true},
		{"scale", "protocol flows", true},
		{"all", "protocol", true},
		{"fig11", "protocol", false},
		{"rogue", "protocol", false},
		// Flags outside the run-wide set are not this check's business.
		{"fig11", "dur seed workers csv plot", true},
	} {
		err := checkRunFlags(tc.name, strings.Fields(tc.set))
		if (err == nil) != tc.ok {
			t.Errorf("checkRunFlags(%q, %q) = %v; want ok=%v", tc.name, tc.set, err, tc.ok)
		}
	}
}
