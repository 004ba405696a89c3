package experiments

import (
	"testing"
	"unsafe"

	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
)

// TestPacketFootprint bounds one pooled packet slot: the scale fabric
// holds tens of thousands live, most of them CNPs. The header every hop
// reads and the two pointers to the slot's CNP and INT records fit Go's
// 112-B size class; the poolcheck stamp adds 8 B, within the 128-B one.
func TestPacketFootprint(t *testing.T) {
	limit := uintptr(112)
	if netsim.PoolcheckEnabled {
		limit = 128
	}
	if size := unsafe.Sizeof(netsim.Packet{}); size > limit {
		t.Errorf("netsim.Packet is %d bytes, want <= %d (the %d-B size class)", size, limit, limit)
	}
}

// TestFlowFootprint bounds what one RoCC flow costs: the scale fabric
// keeps 100 000 of them live, so each byte here is ~100 KB of heap there.
// The bounds are Go allocation size classes: a Flow over 192 B takes a
// 208- or 224-B slot, a FlowCC over 224 B a 240- or 256-B one.
func TestFlowFootprint(t *testing.T) {
	if size := unsafe.Sizeof(netsim.Flow{}); size > 192 {
		t.Errorf("netsim.Flow is %d bytes, want <= 192 (the 192-B size class)", size)
	}
	if size := unsafe.Sizeof(roccnet.FlowCC{}); size > 224 {
		t.Errorf("roccnet.FlowCC is %d bytes, want <= 224 (the 224-B size class)", size)
	}

	// A RoCC flow is two heap objects, the Flow and its controller (which
	// holds the reaction point by value), whether or not a metrics
	// registry is attached. Starting flows grows the flow registry and
	// the hosts' flow lists; a warm-up of that many starts first keeps
	// their growth out of the count.
	for _, reg := range []*telemetry.Registry{nil, telemetry.New()} {
		engine := sim.New()
		star := topology.BuildStar(engine, 1, 4, netsim.Gbps(40))
		star.Net.SetTelemetry(reg, nil)
		mix := NewMix(star.Net, 0)
		mix.Activate(ProtoRoCC)
		mix.EnableAllSwitchPorts()
		const runs = 1000
		start := func() {
			for _, src := range star.Sources {
				mix.StartFlow(ProtoRoCC, src, star.Dst, -1, 0)
			}
		}
		for i := 0; i < runs; i++ {
			start()
		}
		if got := testing.AllocsPerRun(runs, start) / float64(len(star.Sources)); got > 2 {
			t.Errorf("registry %v: starting a RoCC flow allocates %.2f objects, want <= 2 (Flow and FlowCC)", reg != nil, got)
		}
	}
}
