package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// ScaleFatTree is the acceptance-scale fabric of the sharded engine:
// a k=16 two-level fat-tree — 8 cores, 16 edges, 64 hosts per edge =
// 1024 hosts — at the paper's 2:1 oversubscription (64×40G hosts over
// 8×2×80G uplinks per edge).
func ScaleFatTree() topology.FatTreeConfig {
	return topology.FatTreeConfig{
		Cores:        8,
		Edges:        16,
		HostsPerEdge: 64,
		LinksPerPair: 2,
		HostRate:     netsim.Gbps(40),
		CoreRate:     netsim.Gbps(80),
	}
}

// ScaleBenchConfig parameterizes one cell of the engine-scaling bench:
// the ScaleFatTree fabric saturated with persistent random-pair flows,
// run for a fixed slice of virtual time at one shard count.
type ScaleBenchConfig struct {
	Shards   int // engine shards, clamped to pods (the zero value means one)
	Seed     int64
	Protocol Protocol
	FatTree  topology.FatTreeConfig
	Flows    int      // concurrent persistent flows (default 100,000)
	Duration sim.Time // virtual time driven (default 1 ms)
}

func (c *ScaleBenchConfig) fill() {
	if c.Protocol == "" {
		c.Protocol = ProtoRoCC
	}
	if c.FatTree.Cores == 0 {
		c.FatTree = ScaleFatTree()
	}
	if c.Flows == 0 {
		c.Flows = 100_000
	}
	if c.Duration == 0 {
		c.Duration = sim.Millisecond
	}
}

// ScaleBenchResult is one row of the scaling table: throughput of the
// event engine at one shard count, plus a digest of the end state for
// the cross-shard-count byte-identity check.
type ScaleBenchResult struct {
	Shards       int
	Events       uint64
	WallSec      float64
	EventsPerSec float64

	// Digest fingerprints the run's observable end state (per-host
	// delivered bytes, drops, events fired). Fixed-seed runs must report
	// the same digest at every shard count — the determinism contract,
	// checked here over the full 1024-host fabric.
	Digest string
}

// RunScaleBench runs one scaling cell and measures wall-clock event
// throughput (setup and teardown excluded).
func RunScaleBench(cfg ScaleBenchConfig) ScaleBenchResult {
	cfg.fill()
	engine := sim.New()
	ft := topology.BuildFatTree(engine, cfg.Seed, cfg.FatTree)
	run := Assemble(RunSpec{Net: ft.Net, FatTree: ft, Shards: cfg.Shards,
		BaseRTT: 16 * sim.Microsecond, Protocols: []Protocol{cfg.Protocol}})
	hosts := ft.Net.Hosts()

	// Persistent flows between seeded random distinct hosts: the flow
	// population is constant for the whole run (the "concurrent flows"
	// the bench is sized by), and the pair sequence depends only on the
	// seed — never on the shard count.
	rand := ft.Net.Rand.Split()
	for i := 0; i < cfg.Flows; i++ {
		src := hosts[rand.Intn(len(hosts))]
		dst := hosts[rand.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rand.Intn(len(hosts))]
		}
		run.Mix.StartFlow(cfg.Protocol, src, dst, -1, 0)
	}

	start := time.Now()
	engine.RunUntil(cfg.Duration)
	wall := time.Since(start).Seconds()

	fired := ft.Net.Group().Fired()

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, host := range hosts {
		put(uint64(host.RxDataBytes))
	}
	put(uint64(ft.Net.TotalDrops()))
	put(fired)

	return ScaleBenchResult{
		Shards:       cfg.Shards,
		Events:       fired,
		WallSec:      wall,
		EventsPerSec: float64(fired) / wall,
		Digest:       fmt.Sprintf("%016x", h.Sum64()),
	}
}
