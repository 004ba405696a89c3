package experiments

import (
	"testing"

	"rocc/internal/sim"
	"rocc/internal/topology"
)

// TestScaleBenchDigest: the scaling cell's digest is the same at one and
// two shards, and seed 0 is a seed of its own, not an alias for seed 1.
func TestScaleBenchDigest(t *testing.T) {
	cell := func(seed int64, shards int) ScaleBenchResult {
		return RunScaleBench(ScaleBenchConfig{
			Shards:   shards,
			Seed:     seed,
			FatTree:  topology.ScaledFatTree(4),
			Flows:    200,
			Duration: 200 * sim.Microsecond,
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
	if seed1 := cell(1, 1); seed1.Digest == one.Digest {
		t.Errorf("seeds 0 and 1 share digest %s: seed 0 does not run as itself", one.Digest)
	}
}
