// Allocation-regression gate for the zero-allocation hot path: once the
// event free lists and the packet pools are primed, steady-state
// execution of saturated links must not allocate. The gate is ≤1
// alloc/event to absorb incidental runtime noise; the measured value is 0.
package rocc_test

import (
	"fmt"
	"runtime"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// TestSteadyStateStepAllocs runs the gate on one shard and on two:
// windowed execution — keyed arrivals, barriers and, across the cut,
// mailbox handoffs and pool ownership transfers — must stay
// allocation-free per event. Traffic is symmetric across the cut so the
// shard-local pools balance (cross-shard handoffs re-home packets to the
// receiving shard's pool; one-directional traffic would drain the
// sender's free list forever).
func TestSteadyStateStepAllocs(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			engine := sim.New()
			net := netsim.New(engine, 1)
			s0 := net.AddSwitch("s0", netsim.BufferConfig{})
			s1 := net.AddSwitch("s1", netsim.BufferConfig{})
			a := net.AddHost("a")
			b := net.AddHost("b")
			net.Connect(a, s0, netsim.Gbps(100), 1500*sim.Nanosecond)
			net.Connect(b, s1, netsim.Gbps(100), 1500*sim.Nanosecond)
			net.Connect(s0, s1, netsim.Gbps(100), 1500*sim.Nanosecond)
			net.ComputeRoutes()

			g := topology.PartitionAuto(net, k).Apply(net)
			if g.Shards() != k {
				t.Fatalf("partition gave %d shards, want %d", g.Shards(), k)
			}
			net.StartFlow(a, b, netsim.FlowConfig{Size: -1})
			net.StartFlow(b, a, netsim.FlowConfig{Size: -1})

			// Prime: pools, free lists, mailbox slices, worker machinery.
			end := 2 * sim.Millisecond
			engine.RunUntil(end)

			const runs = 20
			const step = 200 * sim.Microsecond
			firedBefore := g.Fired()
			allocsPerCall := testing.AllocsPerRun(runs, func() {
				end += step
				engine.RunUntil(end)
			})
			// AllocsPerRun runs the closure runs+1 times (one warm-up).
			eventsPerCall := float64(g.Fired()-firedBefore) / float64(runs+1)
			if eventsPerCall < 1000 {
				t.Fatalf("only %.0f events per window batch; workload too idle to gate", eventsPerCall)
			}
			perEvent := allocsPerCall / eventsPerCall
			t.Logf("steady state: %.4f allocs/event (%.1f per ~%.0f-event window batch)",
				perEvent, allocsPerCall, eventsPerCall)
			if perEvent > 1 {
				t.Fatalf("steady state allocates %.2f objects/event, want ≤1 (target 0)", perEvent)
			}
		})
	}
}

// TestProtocolStepAllocs extends the gate to the packets that carry a
// protocol record: a RoCC star, whose CP sends each flow a CNP with a
// payload at every update, and an HPCC star, whose switch stamps INT on
// every data packet and whose receiver echoes it in every ACK. A pool slot
// allocates its CNP or INT record once and keeps it, so once the pool is
// primed stepping must stay allocation-free per event.
func TestProtocolStepAllocs(t *testing.T) {
	for _, proto := range []experiments.Protocol{experiments.ProtoRoCC, experiments.ProtoHPCC} {
		t.Run(string(proto), func(t *testing.T) {
			engine := sim.New()
			star := topology.BuildStar(engine, 1, 4, netsim.Gbps(40))
			mix := experiments.NewMix(star.Net, 0)
			mix.Activate(proto)
			mix.EnableAllSwitchPorts()
			mix.AttachReceivers()
			var flows []*netsim.Flow
			for _, src := range star.Sources {
				flows = append(flows, mix.StartFlow(proto, src, star.Dst, -1, 0))
			}
			// signals moves when the run consumes a record: it sums the
			// CNPs RoCC's congestion points sent and the rates HPCC's INT
			// echoes set (nothing else moves an HPCC window).
			signals := func() (n float64) {
				for _, cp := range mix.CPs {
					n += float64(cp.CNPsSent)
				}
				if proto == experiments.ProtoHPCC {
					for _, f := range flows {
						n += float64(f.CC.CurrentRate())
					}
				}
				return n
			}

			// Prime: by 10 ms the queue has settled, the pool holds its
			// peak of live slots and each slot its record.
			engine.RunUntil(10 * sim.Millisecond)

			const batch = 1000
			signalsBefore := signals()
			allocsPerBatch := testing.AllocsPerRun(50, func() {
				for i := 0; i < batch; i++ {
					engine.Step()
				}
			})
			if signals() == signalsBefore {
				t.Fatal("no CNP or INT feedback reached a sender while measured; the gate sees no records")
			}
			perEvent := allocsPerBatch / batch
			t.Logf("steady state: %.4f allocs/event in %d events", perEvent, 51*batch)
			if perEvent > 1 {
				t.Fatalf("steady state allocates %.2f objects/event, want ≤1 (target 0)", perEvent)
			}
		})
	}
}

// TestFlowCompletionAllocs extends the gate to flow churn: once a flow
// has been started, carrying it to completion and dropping it from the
// registry after the grace period (the path every FB_Hadoop flow takes)
// must not allocate — in particular no closure per removal timer.
func TestFlowCompletionAllocs(t *testing.T) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	c := net.AddHost("c")
	net.Connect(a, sw, netsim.Gbps(100), 1500*sim.Nanosecond)
	net.Connect(sw, c, netsim.Gbps(100), 1500*sim.Nanosecond)
	net.ComputeRoutes()

	const flows = 2000
	start := func() {
		for i := 0; i < flows; i++ {
			net.StartFlow(a, c, netsim.FlowConfig{Size: 3 * netsim.MTUPayload})
		}
	}
	// Prime the packet pool, the event free list and the registry map.
	start()
	engine.Run()

	start()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	engine.Run()
	runtime.ReadMemStats(&after)
	if n := net.ActiveFlowCount(); n != 0 {
		t.Fatalf("%d flows still registered after the run", n)
	}
	perFlow := float64(after.Mallocs-before.Mallocs) / flows
	t.Logf("flow completion: %.3f allocs/flow", perFlow)
	if perFlow > 0.1 {
		t.Fatalf("completing and removing a flow allocates %.2f objects, want 0", perFlow)
	}
}
