package experiments

import (
	"reflect"
	"testing"

	"rocc/internal/sim"
	"rocc/internal/topology"
)

// shardFCTConfig is a small-but-real fat-tree FCT run: enough flows and
// congestion to exercise cross-shard traffic, CNPs, PFC and completions,
// small enough to run at several shard counts in one test.
func shardFCTConfig(shards int) FCTConfig {
	return FCTConfig{
		Protocol: ProtoRoCC,
		FatTree:  topology.ScaledFatTree(6),
		Duration: 8 * sim.Millisecond,
		Load:     0.7,
		Seed:     42,
		Shards:   shards,
	}
}

// stripShards clears the one config field that legitimately differs
// between compared runs.
func stripShards(r FCTResult) FCTResult {
	r.Config.Shards = 0
	return r
}

// TestFCTShardDeterminism is the tentpole's contract: a fixed-seed
// fat-tree run produces byte-identical results at every shard count.
func TestFCTShardDeterminism(t *testing.T) {
	base := stripShards(RunFCT(shardFCTConfig(1)))
	if base.FlowsDone == 0 {
		t.Fatal("no flows completed; config too small to prove anything")
	}
	for _, k := range []int{2, 8} {
		got := stripShards(RunFCT(shardFCTConfig(k)))
		if !reflect.DeepEqual(base, got) {
			t.Errorf("shards=%d diverged from shards=1:\n  1: flows=%d bytes=%d drops=%d rate=%v/%v\n  %d: flows=%d bytes=%d drops=%d rate=%v/%v",
				k, base.FlowsDone, base.TotalBytes, base.Drops, base.RateMean, base.RateStd,
				k, got.FlowsDone, got.TotalBytes, got.Drops, got.RateMean, got.RateStd)
		}
	}
}

// TestFCTShardDeterminismAllProtocols runs a shorter cut of the same
// contract for every protocol whose stack has shard-sensitive parts
// (markers with RNG, per-port tickers, receiver hooks).
func TestFCTShardDeterminismAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol determinism sweep is not short")
	}
	for _, p := range []Protocol{ProtoRoCC, ProtoDCQCN, ProtoDCQCNPI, ProtoHPCC, ProtoTIMELY, ProtoDCTCP, ProtoQCN} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := shardFCTConfig(1)
			cfg.Protocol = p
			cfg.Duration = 4 * sim.Millisecond
			base := stripShards(RunFCT(cfg))
			cfg.Shards = 2
			got := stripShards(RunFCT(cfg))
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%v: shards=2 diverged from shards=1 (flows %d vs %d, bytes %d vs %d)",
					p, base.FlowsDone, got.FlowsDone, base.TotalBytes, got.TotalBytes)
			}
		})
	}
}

// TestFig12aShardDeterminism extends the contract beyond FCT and soak to
// the first micro figure with two switches: the Fig. 12a row is the same
// whether both switches share a shard or the inter-switch link is the
// cut, for an RNG-marking, an INT-window and a switch-rate protocol.
func TestFig12aShardDeterminism(t *testing.T) {
	for _, p := range []Protocol{ProtoDCQCN, ProtoHPCC, ProtoRoCC} {
		one := runFig12a(p, 4*sim.Millisecond, 1, 1)
		two := runFig12a(p, 4*sim.Millisecond, 1, 2)
		if one.D[0] == 0 {
			t.Errorf("%s: D0 delivered nothing; run too short to prove anything", p)
		}
		if !reflect.DeepEqual(one, two) {
			t.Errorf("%s: shards=2 diverged from shards=1:\n  1: %v\n  2: %v", p, one.D, two.D)
		}
	}
}
