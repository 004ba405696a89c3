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
