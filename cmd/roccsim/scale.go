package main

import (
	"flag"
	"fmt"
	"runtime"

	"rocc/internal/experiments"
	"rocc/internal/sim"
)

var (
	shardsFlag = flag.Int("shards", 1, "engine shards for fat-tree runs (fig14-18, fig20, table3, soak): N >= 1; "+
		"output is byte-identical for every N, so this only moves wall time")
	flowsFlag = flag.Int("flows", 100_000, "scale: concurrent persistent flows on the k=16 fat-tree")
)

// checkShards rejects a -shards value below one. The auto (-1) and
// single-loop (0) values of earlier versions are usage errors now —
// there is one event order, and one shard runs it.
func checkShards(n int) error {
	if n < 1 {
		return fmt.Errorf("-shards %d: need at least 1 shard (0 and -1 no longer select anything; omit the flag for 1)", n)
	}
	return nil
}

// runScale sweeps the k=16 fat-tree (1024 hosts, -flows concurrent
// flows) across shards 1/2/4/8 and exits non-zero unless every
// end-state digest matches. bench/ owns the timing of this fabric; the
// table here is a digest check with wall times for orientation.
func runScale() {
	fmt.Printf("scale: k=16 fat-tree engine-scaling check (1024 hosts, %d flows, %d CPUs, GOMAXPROCS %d)\n",
		*flowsFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("  %-7s %12s %10s %14s %8s\n", "shards", "events", "wall s", "events/sec", "digest")
	var results []experiments.ScaleBenchResult
	for _, k := range []int{1, 2, 4, 8} {
		r := experiments.RunScaleBench(experiments.ScaleBenchConfig{
			Shards:   k,
			Seed:     *seedFlag,
			Protocol: proto,
			Flows:    *flowsFlag,
			Duration: dur(sim.Millisecond),
		})
		results = append(results, r)
		fmt.Printf("  %-7d %12d %10.2f %14.0f %8s\n", r.Shards, r.Events, r.WallSec, r.EventsPerSec, r.Digest[:8])
	}
	identical := true
	for _, r := range results[1:] {
		if r.Digest != results[0].Digest {
			identical = false
		}
	}
	fmt.Printf("  speedup 8/1: %.2fx   digests identical: %v\n",
		results[0].WallSec/results[len(results)-1].WallSec, identical)
	if !identical {
		failed = true
	}
}
