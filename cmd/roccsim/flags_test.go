package main

import (
	"io"
	"slices"
	"strings"
	"testing"
)

// badArgs are command lines roccsim must refuse with exit 2 before
// anything runs. Each reads -dur, -count or -flows where it can, so a
// regression that lets one through still runs briefly.
var badArgs = []string{
	"nosuchfig",
	"fig8 fig9",
	"-protocol bogus fig8",
	// Values no run can honour.
	"-dur 1ms -cnp-loss 2 faults",
	"-dur 1ms -cnp-loss 1.5 faults",
	"-dur 1ms -cnp-loss -0.5 faults",
	"-dur 1ms -cnp-loss -2 faults",
	"-dur 1ms -link-flap -1ms faults",
	"-link-flap 5ns faults",
	"-dur 1ms -ranks 2 -kill bogus collective",
	"-dur 1ms -kill= collective",
	"-dur 1ms -kill switch collective", // recovery's kill kind, not the collective's
	"-dur 1ms -pattern mesh collective",
	"-dur 1ms -coll-mode lossless collective",
	"-dur 1ms -rogue-kind meek rogue",
	"-mix rocc:1e308,dcqcn:1e308 rollout", // weights whose sum overflows
	"-dur 1ms -shards 0 fig14",            // was: the single-loop engine
	"-dur 1ms -shards -1 fig14",           // was: auto from GOMAXPROCS
	"-count 2 -shards -8 soak",
	// Values a default used to replace.
	"-reps 0 fig11",
	"-reps -4 fig11",
	"-dur -1ms fig11",
	"-workers -3 fig11",
	"-dur 1ms -msg 65536 -iters 1 -ranks 1 collective",
	"-dur 1ms -msg 0 collective",
	"-dur 1ms -msg -5 collective",
	"-dur 1ms -chunks 0 collective",
	"-dur 1ms -iters 0 collective",
	"-count -2 soak",
	"-count 2 -budget -1s soak",
	"-count 2 -fault-scale -3 soak",
	"-count 2 -mix-prob 2 soak",
	"-count 2 -fail-prob 1.5 soak",
	"-count 2 -mode-prob -0.1 soak",
	"-count 2 -rogue-prob NaN soak",
	"-dur 1ms -fanin -3 fig18",
	"-dur 1ms -load 0 fig14",     // was: run at the 70% default, printed as 0%
	"-dur 1ms -load -1 table3",   // was: a panic in every cell
	"-dur 300us -load NaN fig17", // was: a run that never ended
	"-dur 1ms -load 1.5 fig20",
	"-dur 100us -flows -1 scale",
	"-flows 0 scale",
	// Flags the experiment does not read.
	"-shards 2 fig8",
	"-dur 100us -flows 100 -shards 2 scale",
	"-reps 5 fig9",
	"-reps 2 fig12a",
	"-count 2 -reps 2 soak",
	"-protocol dcqcn fig11",
	"-protocol dcqcn rogue",
	"-trace t.json fig14",
	"-trace t.json collective",
	"-metrics fig13",
	"-count 2 -metrics soak",
	"-fanin 30 fig14",
	"-load 0.5 fig8",
	"-plot fig11",
	"-cnp-loss 0.1 fig9",
	"-mix rocc:1 fig12b",
	"-count 3 fig13",
	"-count 3 all",
	// Flags every experiment used to accept whether or not it read them.
	"-seed 5 fig5",
	"-dur 1ms fig5",
	"-workers 2 fig5",
	"-csv out fig5",
	"-dur 1ms -workers 3 fig9",
	"-dur 100us -flows 100 -workers 4 scale",
	"-count 2 -dur 1ms soak",
	"-dur 1ms -csv out fig11",
	"-dur 1ms -csv out table3",
}

// goodArgs are command lines that must parse, beside every golden run's.
var goodArgs = []string{
	"",
	"fig14",
	"-dur 3ms -protocol rocc -trace trace.json -metrics",
	"-trace t.json fig9",
	"-trace t.json -metrics all",
	"-shards 1 fig14",
	"-shards 8 fig20",
	"-shards 2 -reps 2 table3",
	"-shards 2 -workers 2 -count 3 soak",
	"-shards 2 all",
	"-reps 2 fig8",
	"-reps 2 -fanin 30 fig18",
	"-protocol hpcc -flows 10 scale",
	"-protocol dcqcn all",
	"-fanin 30 -load 0.5 fig20",
	"-load 0.5 -fanin 30 -plot all",
	"-plot fig9",
	"-cnp-loss -1 -link-flap 0 faults",
	"-cnp-loss 0 faults",
	"-cnp-loss 1 faults",
	"-cnp-loss 0.1 -link-flap 4ms faults",
	"-rogue-kind blast rogue",
	"-pattern ps -ranks 12 -msg 65536 -chunks 1 -iters 2 -coll-mode pfconly -kill link collective",
	"-kill none -coll-mode= collective",
	"-count 5 -budget 1s -soak-out repros -shrink=false -fault-scale 0 -mix-prob 1 -fail-prob 0 -mode-prob 0.5 -rogue-prob 1 soak",
	"-seed 7 -count 5000 -budget 30m -workers 0 -fail-prob 0.3 -mode-prob 0.3 -rogue-prob 0.3 -soak-out soak-repros soak",
	"-flows 20000 -dur 250us scale",
	"-dur 1ms -seed 2 -workers 3 -cpuprofile c.prof -memprofile m.prof fig11",
	"-cpuprofile c.prof -memprofile m.prof fig5",
	"-csv out -workers 2 fluid",
	"-csv out collective",
}

// TestBadFlagsExitTwo: a flag the experiment does not read, or a value
// it cannot honour, is a usage error at parse time, never a panic inside
// a cell and never a default silently put in its place.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range badArgs {
		r := runArgs(strings.Fields(args)...)
		if r.Code != 2 || r.Stdout != "" {
			t.Errorf("roccsim %s: exit %d, stdout %q; want exit 2 and no output\nstderr:\n%s",
				args, r.Code, r.Stdout, r.Stderr)
		}
	}
}

// TestGoodFlagsParse: every golden run and each of goodArgs parses to a
// job, and -h exits 0.
func TestGoodFlagsParse(t *testing.T) {
	args := slices.Clone(goodArgs)
	for _, g := range goldenRuns {
		args = append(args, g.args)
	}
	for _, a := range args {
		var stderr strings.Builder
		if j, code := parse(strings.Fields(a), &stderr); j == nil {
			t.Errorf("roccsim %s: exit %d, want a job\nstderr:\n%s", a, code, stderr.String())
		}
	}
	if r := runArgs("-h"); r.Code != 0 || r.Stdout != "" || !strings.Contains(r.Stderr, "  fig8 ") {
		t.Errorf("roccsim -h: exit %d, stdout %q; want exit 0 and usage on stderr\nstderr:\n%s", r.Code, r.Stdout, r.Stderr)
	}
}

// FuzzRoccsimArgs: any command line parses to a runnable job, or to exit
// 0 (-h) or 2, and never panics. It parses only; nothing runs.
func FuzzRoccsimArgs(f *testing.F) {
	for _, a := range slices.Concat(badArgs, goodArgs) {
		f.Add(a)
	}
	for _, g := range goldenRuns {
		f.Add(g.args)
	}
	f.Fuzz(func(t *testing.T, line string) {
		j, code := parse(strings.Fields(line), io.Discard)
		if j != nil && (code != 0 || j.body == nil) || j == nil && code != 0 && code != 2 {
			t.Errorf("roccsim %s: job %v, exit %d", line, j != nil, code)
		}
	})
}
