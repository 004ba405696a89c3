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
	p1.StampINT(INTRecord{QLen: 7})
	net.ReleasePacket(p1)
	p2 := net.AcquirePacket(h)
	if p2 != p1 {
		t.Fatal("pool did not reuse the released struct")
	}
	if p2.Seq != 0 || len(p2.INT()) != 0 {
		t.Fatalf("recycled packet not reset: seq=%d len(INT)=%d", p2.Seq, len(p2.INT()))
	}
	if cap(p2.INT()) == 0 {
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

func TestEnsureCNPReusesPacketRecord(t *testing.T) {
	net, h := poolFixture()
	pkt := net.AcquirePacket(h)
	if pkt.CNP() != nil {
		t.Fatal("fresh packet carries a CNP payload")
	}
	info := pkt.EnsureCNP()
	info.RateUnits = 42
	if pkt.CNP() != info || pkt.CNP().RateUnits != 42 {
		t.Fatal("EnsureCNP did not attach the slot's record")
	}
	net.ReleasePacket(pkt)
	again := net.AcquirePacket(h)
	if again != pkt || again.CNP() != nil {
		t.Fatal("CNP payload survived the pool cycle")
	}
	if got := again.EnsureCNP(); got != info || *got != (CNPInfo{}) {
		t.Fatalf("EnsureCNP on a recycled slot: record %p (want %p) = %+v, want the zeroed slot record",
			got, info, *got)
	}
}

// TestRecycledPacketCarriesNoStalePayload releases a RoCC CNP that also
// carries INT stacks, then reacquires its slot as a payload-less (DCQCN)
// CNP and as a data packet: the slot keeps its records, but neither reuse
// may see what they held.
func TestRecycledPacketCarriesNoStalePayload(t *testing.T) {
	net, h := poolFixture()
	rocc := net.AcquirePacket(h)
	rocc.Kind = KindCNP
	*rocc.EnsureCNP() = CNPInfo{CP: CPID{Node: 4, Port: 2}, RateUnits: 17}
	rocc.StampINT(INTRecord{QLen: 5})
	rocc.SetEchoINT([]INTRecord{{QLen: 6}})
	net.ReleasePacket(rocc)

	for _, kind := range []Kind{KindCNP, KindData} {
		pkt := net.AcquirePacket(h)
		if pkt != rocc {
			t.Fatal("pool did not reuse the released slot")
		}
		pkt.Kind = kind
		if pkt.CNP() != nil {
			t.Errorf("recycled %s packet shows a stale CNP payload %+v", kind, *pkt.CNP())
		}
		if len(pkt.INT()) != 0 || len(pkt.EchoINT()) != 0 {
			t.Errorf("recycled %s packet shows stale INT stacks %v / %v", kind, pkt.INT(), pkt.EchoINT())
		}
		net.ReleasePacket(pkt)
	}
}

// TestClonePacketIsIndependent clones a RoCC CNP, an HPCC data packet and
// an HPCC ACK: each clone must own its CNP and INT records, so mutating
// either copy, or recycling the original, leaves the other unchanged.
func TestClonePacketIsIndependent(t *testing.T) {
	net, h := poolFixture()
	net.INTHopCap = 4

	cnp := net.AcquirePacket(h)
	cnp.Flow = 3
	cnp.Kind = KindCNP
	cnp.EnsureCNP().RateUnits = 7
	data := net.AcquirePacket(h)
	data.StampINT(INTRecord{QLen: 1})
	ack := net.AcquirePacket(h)
	ack.Kind = KindAck
	ack.SetEchoINT([]INTRecord{{QLen: 2}})

	cc, dc, ac := net.ClonePacket(cnp), net.ClonePacket(data), net.ClonePacket(ack)
	if cc.Flow != 3 || cc.CNP() == nil || cc.CNP().RateUnits != 7 || len(cc.INT()) != 0 {
		t.Fatalf("CNP clone lost fields: %+v", cc)
	}
	if dc.CNP() != nil || len(dc.INT()) != 1 || dc.INT()[0].QLen != 1 {
		t.Fatalf("data clone lost fields: %+v", dc)
	}
	if ac.CNP() != nil || len(ac.EchoINT()) != 1 || ac.EchoINT()[0].QLen != 2 {
		t.Fatalf("ACK clone lost fields: %+v", ac)
	}
	if cc.CNP() == cnp.CNP() {
		t.Fatal("clone shares the original's CNP record")
	}

	// Mutating a clone leaves the original alone, and the other way round.
	cc.CNP().RateUnits = 8
	dc.INT()[0].QLen = 9
	ac.EchoINT()[0].QLen = 9
	if cnp.CNP().RateUnits != 7 || data.INT()[0].QLen != 1 || ack.EchoINT()[0].QLen != 2 {
		t.Fatal("mutating a clone changed its original")
	}
	data.INT()[0].QLen = 10
	ack.EchoINT()[0].QLen = 10
	if dc.INT()[0].QLen != 9 || ac.EchoINT()[0].QLen != 9 {
		t.Fatal("mutating an original changed its clone")
	}

	// Releasing and recycling the originals must not disturb the clones.
	for _, p := range []*Packet{cnp, data, ack} {
		net.ReleasePacket(p)
	}
	for range 3 {
		reused := net.AcquirePacket(h)
		reused.StampINT(INTRecord{QLen: 99})
		reused.SetEchoINT([]INTRecord{{QLen: 99}})
		reused.EnsureCNP().RateUnits = 99
	}
	if cc.CNP().RateUnits != 8 || dc.INT()[0].QLen != 9 || ac.EchoINT()[0].QLen != 9 {
		t.Fatal("recycling an original corrupted its clone")
	}
	if got := net.OutstandingPackets(); got != 6 {
		t.Fatalf("outstanding = %d, want 6 (3 clones + 3 reused)", got)
	}
}

func TestAcquireReleaseZeroAlloc(t *testing.T) {
	net, h := poolFixture()
	net.ReleasePacket(net.AcquirePacket(h)) // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		pkt := net.AcquirePacket(h)
		pkt.StampINT(INTRecord{})
		pkt.SetEchoINT(pkt.INT())
		pkt.EnsureCNP().RateUnits = 1
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
