package experiments

import (
	"reflect"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/sim"
	"rocc/internal/topology"
	"rocc/internal/workload"
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

// paperFCTConfig is the bench's fct_hadoop cell — the paper's 3×3×30
// fat-tree, FB_Hadoop at 70 % load, RoCC — cut to 2 ms.
func paperFCTConfig(shards int) FCTConfig {
	return FCTConfig{
		Protocol: ProtoRoCC,
		Workload: workload.FBHadoop(),
		FatTree:  topology.PaperFatTree(),
		Duration: 2 * sim.Millisecond,
		Seed:     1,
		Shards:   shards,
	}
}

// TestFCTWindowsAcrossShardCounts: the window sequence is derived from
// the union of pending times, so the paper's fat-tree runs the same
// number of windows at every shard count (DESIGN.md §14).
func TestFCTWindowsAcrossShardCounts(t *testing.T) {
	_, net := runFCT(paperFCTConfig(1))
	want := net.Group().Windows()
	if want == 0 {
		t.Fatal("no windows ran")
	}
	for _, k := range []int{2, 8} {
		_, net := runFCT(paperFCTConfig(k))
		if got := net.Group().Windows(); got != want {
			t.Errorf("shards=%d ran %d windows, want %d as at shards=1", k, got, want)
		}
	}
}

// TestShardedPoolsStayBalanced: on the paper's fat-tree, data packets are
// acquired behind the sending edges and freed behind the receiving one.
// At 2 shards that moves free packets from one shard's pool to the
// other's; rebalancing at the barrier keeps the packet structs two pools
// allocate near what one pool needs, and the ledger still closes once
// the flows drain.
func TestShardedPoolsStayBalanced(t *testing.T) {
	var slots [3]uint64
	for _, k := range []int{1, 2} {
		cfg := paperFCTConfig(k)
		_, net := runFCT(cfg)
		net.Engine.RunUntil(cfg.Duration + 10*sim.Millisecond) // arrivals are stopped: drain
		if n := net.ActiveFlowCount(); n != 0 {
			t.Fatalf("shards=%d: %d flows still active after the drain", k, n)
		}
		if live := net.OutstandingPackets(); live != 0 {
			t.Errorf("shards=%d: %d pooled packets outstanding after the drain", k, live)
		}
		slots[k] = net.PacketSlots()
	}
	if 2*slots[2] > 3*slots[1] {
		t.Errorf("2 shards allocated %d packet structs, over 1.5× the %d of one", slots[2], slots[1])
	}
}

// faultedShardRun drives 400 persistent RoCC flows for 100 µs on the
// paper's fat-tree with every edge uplink duplicating 30 % and
// corrupting 5 % of what it sends, and reports the events fired, the
// bytes delivered, the fault counts and the fabric's engine group.
func faultedShardRun(shards int) (uint64, int64, faults.Stats, *sim.Group) {
	engine := sim.New()
	ft := topology.BuildFatTree(engine, 3, topology.PaperFatTree())
	run := Assemble(RunSpec{Net: ft.Net, FatTree: ft, Shards: shards,
		BaseRTT: 16 * sim.Microsecond, Protocols: []Protocol{ProtoRoCC}})
	inj := faults.New(ft.Net, 3)
	for _, p := range ft.EdgeUp {
		inj.Direction(p, faults.LinkConfig{Duplicate: 0.3, Corrupt: 0.05})
	}
	hosts := ft.Net.Hosts()
	rand := ft.Net.Rand.Split()
	for i := 0; i < 400; i++ {
		src := hosts[rand.Intn(len(hosts))]
		dst := hosts[rand.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rand.Intn(len(hosts))]
		}
		run.Mix.StartFlow(ProtoRoCC, src, dst, -1, 0)
	}
	engine.RunUntil(100 * sim.Microsecond)
	var bytes int64
	for _, h := range hosts {
		bytes += int64(h.RxDataBytes)
	}
	return ft.Net.Group().Fired(), bytes, inj.Stats(), ft.Net.Group()
}

// TestShardedFaultedUplinks: duplicates are cloned on the sending shard
// and corrupted CNPs mangled in place on uplinks that cross shards, yet
// two shards run the same events and deliver the same bytes as one.
// Some windows are dispatched to the shard workers, so under -race this
// also checks that a duplicate is taken from the sender's pool before
// the original is handed to the peer shard.
func TestShardedFaultedUplinks(t *testing.T) {
	events1, bytes1, stats1, _ := faultedShardRun(1)
	if stats1.Duplicated == 0 || stats1.Corrupted == 0 || bytes1 == 0 {
		t.Fatalf("cell too small to prove anything: %d bytes, faults %+v", bytes1, stats1)
	}
	events2, bytes2, stats2, g := faultedShardRun(2)
	if events2 != events1 || bytes2 != bytes1 || stats2 != stats1 {
		t.Errorf("shards=2 diverged: events %d vs %d, bytes %d vs %d, faults %+v vs %+v",
			events2, events1, bytes2, bytes1, stats2, stats1)
	}
	dispatched := g.Windows() - g.InlineWindows()
	t.Logf("%d events, %d of %d windows dispatched", events2, dispatched, g.Windows())
	if dispatched == 0 {
		t.Errorf("all %d windows ran inline; the shard workers never ran", g.Windows())
	}
}
