package main

import (
	"flag"
	"runtime"

	"rocc/internal/experiments"
)

// scale sweeps the k=16 fat-tree (1024 hosts, -flows concurrent
// flows) across shards 1/2/4/8 and exits non-zero unless every
// end-state digest matches. bench/ owns the timing of this fabric; the
// table here is a digest check with wall times for orientation.
func scale(fs *flag.FlagSet, _ string) func(*out) {
	dur, seed, proto := bindDur(fs), bindSeed(fs), bindProtocol(fs)
	flows := define(fs, "flows", 100_000, "`count` of concurrent persistent flows on the k=16 fat-tree", parsePositive)
	return func(o *out) {
		o.printf("scale: k=16 fat-tree engine-scaling check (1024 hosts, %d flows, %d CPUs, GOMAXPROCS %d)\n",
			*flows, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		o.printf("  %-7s %12s %10s %14s %8s\n", "shards", "events", "wall s", "events/sec", "digest")
		var results []experiments.ScaleBenchResult
		for _, k := range []int{1, 2, 4, 8} {
			r := experiments.RunScaleBench(experiments.ScaleBenchConfig{
				Shards:   k,
				Seed:     *seed,
				Protocol: *proto,
				Flows:    *flows,
				Duration: dur(),
			})
			results = append(results, r)
			o.printf("  %-7d %12d %10.2f %14.0f %8s\n", r.Shards, r.Events, r.WallSec, r.EventsPerSec, r.Digest[:8])
		}
		identical := true
		for _, r := range results[1:] {
			if r.Digest != results[0].Digest {
				identical = false
			}
		}
		o.printf("  speedup 8/1: %.2fx   digests identical: %v\n",
			results[0].WallSec/results[len(results)-1].WallSec, identical)
		if !identical {
			o.failed = true
		}
	}
}
