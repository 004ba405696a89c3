package faults

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// cnpCounter is a flow controller that counts the CNPs reaching it.
type cnpCounter struct {
	netsim.NoCC
	cnps int
}

func (c *cnpCounter) OnCNP(sim.Time, *netsim.Packet) { c.cnps++ }

// pair builds host → switch → host with 40G links.
func pair() (*sim.Engine, *netsim.Network, *netsim.Host, *netsim.Host, *netsim.Switch) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s", netsim.BufferConfig{})
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, sw, netsim.Gbps(40), 1500)
	net.Connect(sw, b, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	return engine, net, a, b, sw
}

func TestZeroConfigInstallsNothing(t *testing.T) {
	_, net, a, _, sw := pair()
	in := New(net, 7)
	in.Direction(a.NIC(), LinkConfig{})
	in.Link(a.NIC(), sw.PortTo(a), LinkConfig{})
	in.DropCNPs(sw, 0)
	in.Flap(a.NIC(), sw.PortTo(a), 0, 0, sim.Second)
	in.StallCP(sw, 0, 0, sim.Second)
	if a.NIC().Fault != nil || sw.PortTo(a).Fault != nil {
		t.Error("zero link config installed a fault hook")
	}
	if sw.InjectGate != nil {
		t.Error("zero CNP drop installed an inject gate")
	}
	if in.Stats() != (Stats{}) {
		t.Error("zero config produced nonzero stats")
	}
}

// TestZeroFaultRunIdentical: a run with a zero-config injector attached
// must transfer exactly the same bytes in exactly the same virtual time
// as a run without the fault layer at all.
func TestZeroFaultRunIdentical(t *testing.T) {
	run := func(withInjector bool) (int64, sim.Time) {
		engine, net, a, b, sw := pair()
		if withInjector {
			in := New(net, 99)
			in.Direction(a.NIC(), LinkConfig{})
			in.DropCNPs(sw, 0)
		}
		f := net.StartFlow(a, b, netsim.FlowConfig{Size: 300_000})
		engine.RunUntil(5 * sim.Millisecond)
		if !f.Done() {
			t.Fatal("flow incomplete")
		}
		return f.DeliveredBytes(), f.FCT()
	}
	bytes0, t0 := run(false)
	bytes1, t1 := run(true)
	if bytes0 != bytes1 || t0 != t1 {
		t.Errorf("zero-fault run diverged: %d bytes at %v vs %d bytes at %v",
			bytes0, t0, bytes1, t1)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, int64) {
		engine, net, a, b, _ := pair()
		in := New(net, 42)
		in.Direction(a.NIC(), LinkConfig{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Match: MatchData})
		f := net.StartFlow(a, b, netsim.FlowConfig{Size: 500_000})
		engine.RunUntil(5 * sim.Millisecond)
		return in.Stats(), f.DeliveredBytes()
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Errorf("same seed diverged: %+v/%d vs %+v/%d", s1, d1, s2, d2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Reordered == 0 {
		t.Errorf("fault paths never exercised: %+v", s1)
	}
}

func TestDropLosesData(t *testing.T) {
	engine, net, a, b, _ := pair()
	in := New(net, 3)
	in.Direction(a.NIC(), LinkConfig{Drop: 1, Match: MatchData})
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: 100_000})
	engine.RunUntil(2 * sim.Millisecond)
	if f.DeliveredBytes() != 0 {
		t.Errorf("delivered %d bytes through a 100%% drop link", f.DeliveredBytes())
	}
	if in.Stats().Dropped == 0 {
		t.Error("no drops counted")
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	engine, net, a, b, _ := pair()
	in := New(net, 3)
	in.Direction(a.NIC(), LinkConfig{Duplicate: 1, Match: MatchData})
	size := int64(100_000)
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: size})
	engine.RunUntil(2 * sim.Millisecond)
	// Unreliable flows count every arrived byte, so a fully duplicated
	// wire doubles the tally — proving the clone really was delivered.
	if got := f.DeliveredBytes(); got != 2*size {
		t.Errorf("delivered %d bytes, want %d (every packet doubled)", got, 2*size)
	}
	if in.Stats().Duplicated == 0 {
		t.Error("no duplicates counted")
	}
}

func TestReorderDelaysDelivery(t *testing.T) {
	engine, net, a, b, _ := pair()
	in := New(net, 3)
	in.Direction(a.NIC(), LinkConfig{Reorder: 1, Match: MatchData})
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: 100_000})
	engine.RunUntil(5 * sim.Millisecond)
	if f.DeliveredBytes() != 100_000 {
		t.Errorf("reordered flow lost bytes: %d", f.DeliveredBytes())
	}
	if in.Stats().Reordered == 0 {
		t.Error("no reorders counted")
	}
}

func TestCorruptMangledCNPSurvivesOthersDropped(t *testing.T) {
	h := &linkHook{in: &Injector{}, cfg: LinkConfig{}, rand: sim.NewRand(5)}
	for i := 0; i < 16; i++ {
		cnp := &netsim.Packet{Kind: netsim.KindCNP}
		cnp.EnsureCNP().RateUnits = 100
		if !h.corrupt(cnp) {
			t.Fatal("corrupt CNP must survive the wire (mangled, not lost)")
		}
		if u := cnp.CNP().RateUnits; u >= 0 && u < 1<<29 {
			t.Fatalf("mangled rate units %d still look plausible", u)
		}
	}
	host := &netsim.Packet{Kind: netsim.KindCNP}
	*host.EnsureCNP() = netsim.CNPInfo{HostComputed: true, QCurUnits: 5, QOldUnits: 4}
	if !h.corrupt(host) || host.CNP().QCurUnits == 5 && host.CNP().QOldUnits == 4 {
		t.Error("host-computed CNP observations not mangled")
	}
	data := &netsim.Packet{Kind: netsim.KindData}
	if h.corrupt(data) {
		t.Error("corrupt data packet must fail CRC and be dropped")
	}
}

// TestCorruptSkipsRecycledPacketWithoutPayload reacquires the pool slot
// of a released RoCC CNP as a DCQCN CNP, which carries no payload: the
// slot still holds the old record, but corruption must treat the packet
// as payload-less (it fails its CRC) rather than mangle a stale payload
// into a survivor.
func TestCorruptSkipsRecycledPacketWithoutPayload(t *testing.T) {
	_, net, a, _, _ := pair()
	h := &linkHook{in: &Injector{}, cfg: LinkConfig{}, rand: sim.NewRand(5)}
	rocc := net.AcquirePacket(a)
	rocc.Kind = netsim.KindCNP
	rocc.EnsureCNP().RateUnits = 100
	net.ReleasePacket(rocc)

	dcqcn := net.AcquirePacket(a)
	if dcqcn != rocc {
		t.Fatal("pool did not reuse the released slot")
	}
	dcqcn.Kind = netsim.KindCNP
	if h.corrupt(dcqcn) {
		t.Error("a payload-less CNP survived corruption: a stale payload was mangled")
	}
	if dcqcn.CNP() != nil {
		t.Error("corruption attached a payload to a payload-less CNP")
	}
}

func TestFlapDropsInFlightTraffic(t *testing.T) {
	engine, net, a, b, sw := pair()
	in := New(net, 3)
	in.Flap(a.NIC(), sw.PortTo(a), sim.Millisecond, 200*sim.Microsecond, sim.Second)
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, MaxRate: netsim.Gbps(10)})
	// Outages run 1.0–1.2, 2.0–2.2, 3.0–3.2, 4.0–4.2 ms; at 4.5 ms the
	// link is in an up phase with four completed flaps.
	engine.RunUntil(4500 * sim.Microsecond)
	if in.Stats().Flaps != 4 {
		t.Errorf("Flaps = %d, want 4 completed outages by 4.5 ms", in.Stats().Flaps)
	}
	if a.NIC().LinkDownDrops == 0 {
		t.Error("no transmissions lost to the downed link")
	}
	if f.DeliveredBytes() == 0 {
		t.Error("flow made no progress between outages")
	}
	if a.NIC().LinkDown() {
		t.Error("link still down after the flap cycle's up phase")
	}
}

func TestDropCNPsGatesInjectedFeedback(t *testing.T) {
	engine, net, a, b, sw := pair()
	in := New(net, 3)
	in.DropCNPs(sw, 1)
	rp := &cnpCounter{}
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, CC: rp})
	for i := 0; i < 10; i++ {
		sw.Inject(&netsim.Packet{Flow: f.ID, Dst: a.ID(), Kind: netsim.KindCNP, Cls: netsim.ClassCtrl, Size: netsim.CNPBytes})
	}
	engine.RunUntil(sim.Millisecond)
	if rp.cnps != 0 {
		t.Errorf("%d CNPs arrived through a 100%% drop gate", rp.cnps)
	}
	if got := in.Stats().CNPsLost; got != 10 {
		t.Errorf("CNPsLost = %d, want 10", got)
	}
	// Data and other kinds pass the gate untouched.
	sw.Inject(&netsim.Packet{Dst: a.ID(), Kind: netsim.KindAck, Cls: netsim.ClassCtrl, Size: 64})
	engine.RunUntil(2 * sim.Millisecond)
}

func TestStallCPSuppressesWindows(t *testing.T) {
	engine, net, a, b, sw := pair()
	in := New(net, 3)
	in.StallCP(sw, sim.Millisecond, 500*sim.Microsecond, sim.Second)
	rp := &cnpCounter{}
	f := net.StartFlow(a, b, netsim.FlowConfig{Size: -1, CC: rp})
	inject := func() {
		sw.Inject(&netsim.Packet{Flow: f.ID, Dst: a.ID(), Kind: netsim.KindCNP, Cls: netsim.ClassCtrl, Size: netsim.CNPBytes})
	}
	// Before the first window: CNPs flow.
	engine.At(500*sim.Microsecond, inject)
	// Inside the first window (1.0–1.5 ms): suppressed.
	engine.At(1200*sim.Microsecond, inject)
	// After it: flows again.
	engine.At(1700*sim.Microsecond, inject)
	engine.RunUntil(3 * sim.Millisecond)
	if rp.cnps != 2 {
		t.Errorf("%d CNPs reached the flow, want 2 (one suppressed)", rp.cnps)
	}
	st := in.Stats()
	if st.CNPsStalled != 1 {
		t.Errorf("CNPsStalled = %d, want 1", st.CNPsStalled)
	}
	if st.StallWindows < 2 {
		t.Errorf("StallWindows = %d, want >= 2 in 3 ms", st.StallWindows)
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	_, net, a, _, sw := pair()
	in := New(net, 1)
	mustPanic("sum > 1", func() {
		in.Direction(a.NIC(), LinkConfig{Drop: 0.5, Corrupt: 0.6})
	})
	mustPanic("negative prob", func() {
		in.Direction(a.NIC(), LinkConfig{Drop: -0.1})
	})
	mustPanic("drop prob > 1", func() { in.DropCNPs(sw, 1.5) })
	mustPanic("down >= period", func() {
		in.Flap(a.NIC(), sw.PortTo(a), sim.Millisecond, sim.Millisecond, sim.Second)
	})
	mustPanic("stall >= period", func() {
		in.StallCP(sw, sim.Millisecond, 2*sim.Millisecond, sim.Second)
	})
	in.Direction(a.NIC(), LinkConfig{Drop: 0.1})
	mustPanic("double attach", func() {
		in.Direction(a.NIC(), LinkConfig{Drop: 0.1})
	})
}
