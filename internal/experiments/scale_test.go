package experiments

import (
	"testing"

	"rocc/internal/sim"
	"rocc/internal/topology"
)

// TestScaleBenchDigest: the scaling cell's digest is the same at one and
// two shards, and seed 0 is a seed of its own, not an alias for seed 1.
// 400 persistent flows on the paper's fat-tree fill most windows past
// the engine's inline threshold, so at two shards the workers run them
// concurrently: the race step's coverage of dispatched windows on the
// packet model.
func TestScaleBenchDigest(t *testing.T) {
	cell := func(seed int64, shards int) ScaleBenchResult {
		return RunScaleBench(ScaleBenchConfig{
			Shards:   shards,
			Seed:     seed,
			FatTree:  topology.PaperFatTree(),
			Flows:    400,
			Duration: 100 * sim.Microsecond,
		})
	}
	one, two := cell(0, 1), cell(0, 2)
	if one.Events == 0 {
		t.Fatal("no events fired; the cell is too small to prove anything")
	}
	if one.Digest != two.Digest || one.Events != two.Events {
		t.Errorf("seed 0: shards 1 and 2 differ: %s/%d events vs %s/%d events",
			one.Digest, one.Events, two.Digest, two.Events)
	}
	if one.Windows != two.Windows {
		t.Errorf("seed 0: %d windows at one shard, %d at two", one.Windows, two.Windows)
	}
	if two.InlineWindows == two.Windows {
		t.Errorf("seed 0: all %d windows at two shards ran inline; none was dispatched", two.Windows)
	}
	if seed1 := cell(1, 1); seed1.Digest == one.Digest {
		t.Errorf("seeds 0 and 1 share digest %s: seed 0 does not run as itself", one.Digest)
	}
}
