package netsim

import (
	"fmt"
	"sort"
	"testing"

	"rocc/internal/harness"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// failover reports s0's live ECMP choices toward dst in the diamond.
func failover(s0 *Switch, dst *Host) []int {
	return s0.routes[dst.ID()]
}

func TestFailLinkLocalRepair(t *testing.T) {
	// Failing one diamond path must instantly fall back to the survivor:
	// the detecting switch drops the dead entry before any reconvergence.
	engine, net, src, dst, s0 := diamond()
	f := net.StartFlow(src, dst, FlowConfig{Size: -1})
	engine.RunUntil(100 * sim.Microsecond)
	sentBefore := f.SentBytes()

	var deadPort *Port
	for _, i := range s0.routes[dst.ID()] {
		deadPort = s0.ports[i]
		break
	}
	net.FailLink(deadPort)
	if got := len(failover(s0, dst)); got != 1 {
		t.Fatalf("after FailLink s0 has %d entries toward dst, want 1", got)
	}
	engine.RunUntil(500 * sim.Microsecond)
	if f.DeliveredBytes() == 0 || f.SentBytes() == sentBefore {
		t.Error("flow stalled despite a surviving equal-cost path")
	}
	if net.BlackholeDrops() != 0 {
		t.Errorf("local repair blackholed %d packets", net.BlackholeDrops())
	}
	if net.Reconverges() != 1 {
		t.Errorf("reconverges = %d, want 1", net.Reconverges())
	}
	f.Stop()
}

func TestFailLinkBlackholeWindowAndRecovery(t *testing.T) {
	// Single-path topology: killing the only link to dst blackholes until
	// the restore's reconvergence, then a reliable flow must recover.
	engine, net, a, b, sw := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: -1, Reliable: true})
	engine.RunUntil(200 * sim.Microsecond)

	egress := sw.PortTo(b)
	engine.At(200*sim.Microsecond, func() { net.FailLink(egress) })
	engine.RunUntil(1 * sim.Millisecond)
	if net.BlackholeDrops() == 0 {
		t.Error("no blackhole drops while the only path was invalidated")
	}
	// Reconvergence over the broken fabric cannot resurrect the route.
	if _, ok := sw.routes[b.ID()]; ok {
		t.Error("switch still routes to dst over a dead link")
	}
	if detail, ok := net.RoutesComplete(); ok {
		t.Error("RoutesComplete passed with an unreachable host")
	} else if detail == "" {
		t.Error("RoutesComplete gave no detail for the gap")
	}

	delivered := f.DeliveredBytes()
	engine.At(1*sim.Millisecond, func() { net.RestoreLink(egress) })
	engine.RunUntil(4 * sim.Millisecond)
	if detail, ok := net.RoutesComplete(); !ok {
		t.Errorf("routes incomplete after restore+reconverge: %s", detail)
	}
	if f.DeliveredBytes() <= delivered {
		t.Errorf("flow stuck at %d bytes after restore", delivered)
	}
	f.Stop()
}

func TestRestoreReadoptsEqualCostPath(t *testing.T) {
	engine, net, _, dst, s0 := diamond()
	deadPort := s0.ports[s0.routes[dst.ID()][0]]
	net.FailLink(deadPort)
	engine.RunUntil(sim.Millisecond) // past reconvergence
	if got := len(failover(s0, dst)); got != 1 {
		t.Fatalf("post-fail reconvergence kept %d entries, want 1", got)
	}
	net.RestoreLink(deadPort)
	// Up again, but the entry only returns at the next reconvergence.
	if got := len(failover(s0, dst)); got != 1 {
		t.Fatalf("restored path adopted before reconvergence (%d entries)", got)
	}
	engine.RunUntil(2 * sim.Millisecond)
	if got := len(failover(s0, dst)); got != 2 {
		t.Errorf("after restore+reconverge s0 has %d entries, want 2", got)
	}
	if net.Reconverges() != 2 {
		t.Errorf("reconverges = %d, want 2 (one per event)", net.Reconverges())
	}
}

func TestFailSwitchBlackholesInFlight(t *testing.T) {
	// Packets already past the host NIC when the switch dies arrive at a
	// cleared forwarding table and must blackhole — counted, released,
	// never panicking.
	engine, net, a, b, sw := pair(Gbps(40))
	f := net.StartFlow(a, b, FlowConfig{Size: -1, Reliable: true})
	engine.RunUntil(300 * sim.Microsecond)
	engine.At(300*sim.Microsecond, func() { net.FailSwitch(sw) })
	engine.RunUntil(600 * sim.Microsecond)
	if sw.BlackholeDrops == 0 {
		t.Error("switch kill blackholed nothing despite packets in flight")
	}
	if detail, ok := net.RoutesComplete(); ok {
		t.Error("RoutesComplete passed with a failed switch")
	} else if detail == "" {
		t.Error("no detail for the failed switch")
	}

	delivered := f.DeliveredBytes()
	engine.At(600*sim.Microsecond, func() { net.RestoreSwitch(sw) })
	engine.RunUntil(5 * sim.Millisecond)
	if detail, ok := net.RoutesComplete(); !ok {
		t.Errorf("routes incomplete after switch restore: %s", detail)
	}
	if f.DeliveredBytes() <= delivered {
		t.Error("reliable flow never recovered after switch restore")
	}
	f.Stop()
}

func TestRestoredSwitchForwardsOnlyAfterReconverge(t *testing.T) {
	_, net, _, b, sw := pair(Gbps(40))
	net.FailSwitch(sw)
	net.RestoreSwitch(sw)
	// Table cleared at fail, links back up at restore: an early arrival
	// must blackhole rather than loop or panic.
	if len(sw.routes) != 0 {
		t.Fatal("failed switch kept forwarding state")
	}
	pkt := net.AcquirePacket(sw)
	pkt.Dst = b.ID()
	pkt.Kind = KindData
	pkt.Cls = ClassData
	pkt.Size = 100
	before := sw.BlackholeDrops
	sw.Arrive(pkt, 0)
	if sw.BlackholeDrops != before+1 {
		t.Error("early post-restore arrival did not blackhole")
	}
}

func TestLoopDropAtHopCap(t *testing.T) {
	_, net, _, b, sw := pair(Gbps(40))
	net.routesDynamic = true
	pkt := net.AcquirePacket(sw)
	pkt.Dst = b.ID()
	pkt.Kind = KindData
	pkt.Cls = ClassData
	pkt.Size = 100
	pkt.hops = DefaultMaxHops // one more traversal exceeds the cap
	sw.Arrive(pkt, 0)
	if sw.LoopDrops != 1 {
		t.Errorf("LoopDrops = %d, want 1", sw.LoopDrops)
	}
	if net.LoopDrops() != 1 {
		t.Errorf("network LoopDrops = %d, want 1", net.LoopDrops())
	}
}

func TestStaticRoutingStillPanicsOnMissingRoute(t *testing.T) {
	// Without any topology event the old contract holds: a missing route
	// is a wiring bug, not a blackhole.
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b") // never connected
	net.Connect(a, sw, Gbps(40), 1500)
	net.ComputeRoutes()
	defer func() {
		if recover() == nil {
			t.Error("static missing route did not panic")
		}
	}()
	sw.Arrive(&Packet{Dst: b.ID(), Kind: KindData, Cls: ClassData, Size: 100}, 0)
}

// rerouteSpy is a RouteAware NoCC recording reconvergence callbacks.
type rerouteSpy struct {
	NoCC
	calls []sim.Time
}

func (s *rerouteSpy) OnReroute(now sim.Time) { s.calls = append(s.calls, now) }

func TestReconvergeNotifiesRouteAware(t *testing.T) {
	engine, net, src, dst, s0 := diamond()
	spy := &rerouteSpy{}
	f := net.StartFlow(src, dst, FlowConfig{Size: -1, CC: spy})
	failAt := 100 * sim.Microsecond
	engine.At(failAt, func() { net.FailLink(s0.ports[s0.routes[dst.ID()][0]]) })
	engine.RunUntil(sim.Millisecond)
	if len(spy.calls) != 1 {
		t.Fatalf("OnReroute called %d times, want 1", len(spy.calls))
	}
	if want := failAt + DefaultReconvergeDelay; spy.calls[0] != want {
		t.Errorf("OnReroute at %v, want %v (fail + reconverge delay)", spy.calls[0], want)
	}
	f.Stop()
}

func TestTopoFailTelemetry(t *testing.T) {
	// No traffic: per-packet events would flood the recorder ring and
	// evict the route instants this test is about.
	engine, net, _, dst, s0 := diamond()
	reg := telemetry.New()
	rec := telemetry.NewRecorder(4096, 0, 0)
	net.SetTelemetry(reg, rec)
	deadPort := s0.ports[s0.routes[dst.ID()][0]]
	engine.At(100*sim.Microsecond, func() { net.FailLink(deadPort) })
	engine.At(500*sim.Microsecond, func() { net.RestoreLink(deadPort) })
	engine.RunUntil(sim.Millisecond)

	if got := reg.Counter("netsim.route.reconverges").Value(); got != net.Reconverges() {
		t.Errorf("reconverges counter = %d, accessor = %d", got, net.Reconverges())
	}
	if got := reg.Counter("netsim.route.reconverges").Value(); got != 2 {
		t.Errorf("reconverges counter = %d, want 2", got)
	}
	h := reg.Histogram("netsim.route.reconverge_ns")
	if h.Count() != 2 {
		t.Errorf("reconvergence latency histogram has %d samples, want 2", h.Count())
	}
	if q := h.Quantile(0.5); q < uint64(DefaultReconvergeDelay) {
		t.Errorf("median reconvergence latency %d ns below the configured delay", q)
	}
	names := map[string]int{}
	for _, e := range rec.Events() {
		if e.Cat == "route" {
			names[e.Name]++
		}
	}
	for _, want := range []string{"fail_link", "restore_link", "reconverge"} {
		if names[want] == 0 {
			t.Errorf("flight recorder missing route event %q (got %v)", want, names)
		}
	}
}

// routeTable serializes a network's full forwarding state into a
// canonical string for equality comparison.
func routeTable(net *Network) string {
	var sb []string
	for _, s := range net.switches {
		dsts := make([]NodeID, 0, len(s.routes))
		for d := range s.routes {
			dsts = append(dsts, d)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		for _, d := range dsts {
			choices := append([]int(nil), s.routes[d]...)
			sort.Ints(choices)
			sb = append(sb, fmt.Sprintf("%s->%d:%v", s.Name, d, choices))
		}
	}
	return fmt.Sprint(sb)
}

func TestECMPTablesDeterministicAcrossRunsAndWorkers(t *testing.T) {
	// Route computation must be a pure function of the topology: identical
	// tables run-over-run, and identical when many topologies are built
	// concurrently on the harness worker pool (no shared-state leakage,
	// no map-iteration-order dependence).
	build := func() string {
		_, net, _, _, _ := diamond()
		// A failure/restore cycle exercises the dynamic recompute path too.
		p := net.switches[0].ports[net.switches[0].routes[net.hosts[1].id][0]]
		net.FailLink(p)
		net.RestoreLink(p)
		net.ComputeRoutes()
		return routeTable(net)
	}
	want := build()
	for _, workers := range []int{1, 4, 8} {
		rs := harness.Run(make([]struct{}, 16), workers, func(struct{}) string { return build() })
		for i, r := range rs {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if got := r.Value; got != want {
				t.Fatalf("workers=%d cell %d: route table diverged:\n got %s\nwant %s",
					workers, i, got, want)
			}
		}
	}
}
