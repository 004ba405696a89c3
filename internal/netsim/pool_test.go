package netsim

import (
	"testing"

	"rocc/internal/sim"
)

// poolFixture is an empty network plus the host its packets are acquired
// for.
func poolFixture() (*Network, *Host) {
	net := New(sim.New(), 1)
	return net, net.AddHost("h")
}

func TestPacketPoolRecyclesStructs(t *testing.T) {
	net, h := poolFixture()
	p1 := net.AcquirePacket(h)
	if !p1.pooled {
		t.Fatal("acquired packet not marked pooled")
	}
	p1.Seq = 99
	p1.INT = append(p1.INT, INTRecord{QLen: 7})
	net.ReleasePacket(p1)
	p2 := net.AcquirePacket(h)
	if p2 != p1 {
		t.Fatal("pool did not reuse the released struct")
	}
	if p2.Seq != 0 || len(p2.INT) != 0 {
		t.Fatalf("recycled packet not reset: seq=%d len(INT)=%d", p2.Seq, len(p2.INT))
	}
	if cap(p2.INT) == 0 {
		t.Fatal("INT capacity did not survive the pool cycle")
	}
	if net.PacketSlots() != 1 {
		t.Fatalf("PacketSlots = %d, want 1", net.PacketSlots())
	}
}

func TestPacketPoolAccounting(t *testing.T) {
	net, h := poolFixture()
	a := net.AcquirePacket(h)
	b := net.AcquirePacket(h)
	if got := net.OutstandingPackets(); got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
	net.ReleasePacket(a)
	if got := net.OutstandingPackets(); got != 1 {
		t.Fatalf("outstanding = %d, want 1", got)
	}
	net.ReleasePacket(b)
	if got := net.OutstandingPackets(); got != 0 {
		t.Fatalf("outstanding = %d, want 0", got)
	}
	if net.PacketsAcquired() != 2 {
		t.Fatalf("acquired = %d, want 2", net.PacketsAcquired())
	}
}

func TestReleaseUnpooledPacketIsNoOp(t *testing.T) {
	net, h := poolFixture()
	net.ReleasePacket(nil)
	net.ReleasePacket(&Packet{Seq: 5}) // hand-built, as tests construct them
	if got := net.OutstandingPackets(); got != 0 {
		t.Fatalf("outstanding = %d after unpooled releases, want 0", got)
	}
	if p := net.AcquirePacket(h); p.Seq != 0 {
		t.Fatal("hand-built packet leaked into the free list")
	}
}

func TestEnsureCNPIsInline(t *testing.T) {
	net, h := poolFixture()
	pkt := net.AcquirePacket(h)
	info := pkt.EnsureCNP()
	info.RateUnits = 42
	if pkt.CNP != &pkt.cnpStore || pkt.CNP.RateUnits != 42 {
		t.Fatal("EnsureCNP did not attach the embedded store")
	}
	net.ReleasePacket(pkt)
	again := net.AcquirePacket(h)
	if again.CNP != nil || again.cnpStore.RateUnits != 0 {
		t.Fatal("CNP payload survived the pool cycle")
	}
}

func TestClonePacketIsIndependent(t *testing.T) {
	net, h := poolFixture()
	orig := net.AcquirePacket(h)
	orig.Flow = 3
	orig.INT = append(orig.INT, INTRecord{QLen: 1})
	orig.EnsureCNP().RateUnits = 7

	c := net.ClonePacket(orig)
	if c.Flow != 3 || len(c.INT) != 1 || c.CNP == nil || c.CNP.RateUnits != 7 {
		t.Fatalf("clone lost fields: %+v", c)
	}
	if c.CNP == orig.CNP {
		t.Fatal("clone shares the original's CNP storage")
	}
	// Releasing and recycling the original must not disturb the clone.
	net.ReleasePacket(orig)
	reused := net.AcquirePacket(h)
	reused.INT = append(reused.INT, INTRecord{QLen: 99})
	reused.EnsureCNP().RateUnits = 99
	if c.INT[0].QLen != 1 || c.CNP.RateUnits != 7 {
		t.Fatal("recycling the original corrupted the clone")
	}
	if got := net.OutstandingPackets(); got != 2 {
		t.Fatalf("outstanding = %d, want 2 (clone + reused)", got)
	}
}

func TestAcquireReleaseZeroAlloc(t *testing.T) {
	net, h := poolFixture()
	net.ReleasePacket(net.AcquirePacket(h)) // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		pkt := net.AcquirePacket(h)
		pkt.INT = append(pkt.INT, INTRecord{})
		net.ReleasePacket(pkt)
	})
	if allocs != 0 {
		t.Fatalf("acquire/release allocated %.1f objects per cycle, want 0", allocs)
	}
}

// TestPoolSteadyStateOnLink drives the canonical one-switch saturated
// topology and asserts the pool reaches a fixed point: packet structs
// stop being allocated once the pipeline is primed, and the ledger
// balances after the flow drains.
func TestPoolSteadyStateOnLink(t *testing.T) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", BufferConfig{})
	a := net.AddHost("a")
	c := net.AddHost("c")
	net.Connect(a, sw, Gbps(100), 1500*sim.Nanosecond)
	net.Connect(sw, c, Gbps(100), 1500*sim.Nanosecond)
	net.ComputeRoutes()
	f := net.StartFlow(a, c, FlowConfig{Size: -1})
	for i := 0; i < 50000; i++ {
		engine.Step()
	}
	slots := net.PacketSlots()
	for i := 0; i < 50000; i++ {
		engine.Step()
	}
	if grew := net.PacketSlots() - slots; grew != 0 {
		t.Fatalf("pool allocated %d new packets in steady state", grew)
	}
	if net.PacketsAcquired() < 1000 {
		t.Fatalf("only %d acquisitions; topology not exercising the pool", net.PacketsAcquired())
	}
	f.Stop()
	engine.Run()
	if live := net.OutstandingPackets(); live != int64(net.QueuedPackets()) {
		t.Fatalf("after drain: %d outstanding vs %d queued (leak or double release)",
			live, net.QueuedPackets())
	}
}
