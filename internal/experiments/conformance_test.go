package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"rocc/internal/dcqcn"
	"rocc/internal/hpcc"
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/timely"
	"rocc/internal/topology"
)

// TestOpsCoverAllProtocols is the descriptor half of the CongestionOps
// conformance suite: every protocol the repo wires has a descriptor whose
// static surface (name, features, ACK cadence) is sane, and any other
// name panics.
func TestOpsCoverAllProtocols(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	for _, p := range AllProtocols() {
		ops := mix.Ops(p)
		if ops == nil {
			t.Fatalf("%s: no descriptor", p)
		}
		if ops.Name() == "" {
			t.Errorf("%s: empty Name", p)
		}
		f := ops.Features()
		if f.INTHops < 0 || f.ExtraHeaderBytes < 0 {
			t.Errorf("%s: negative feature capacity %+v", p, f)
		}
		if f.INTHops > 0 && p != ProtoHPCC {
			t.Errorf("%s: unexpected INT requirement", p)
		}
		if ae := ops.AckEvery(star.Sources[0]); ae < 0 {
			t.Errorf("%s: negative AckEvery %d", p, ae)
		}
		if cc := ops.NewFlowCC(star.Net, star.Sources[0]); cc == nil {
			t.Errorf("%s: NewFlowCC returned nil", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Ops accepted an unknown protocol")
		}
	}()
	mix.Ops("swift")
}

// TestOpsFlowCCContract drives each descriptor's fresh controller
// through the FlowCC surface directly: a new flow must be allowed to
// send, survive the OnSent/OnAck cycle, and report a non-negative rate.
func TestOpsFlowCCContract(t *testing.T) {
	for _, p := range AllProtocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			engine := sim.New()
			star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
			mix := NewMix(star.Net, 0)
			cc := mix.Ops(p).NewFlowCC(star.Net, star.Sources[0])
			at, ok := cc.Allow(0, 1000)
			if !ok {
				t.Fatal("fresh controller refuses the first packet")
			}
			if at < 0 {
				t.Fatalf("negative eligible time %v", at)
			}
			pkt := star.Net.AcquirePacket(star.Sources[0])
			pkt.Kind = netsim.KindData
			pkt.Payload = 1000
			cc.OnSent(0, pkt)
			pkt.Kind = netsim.KindAck
			cc.OnAck(sim.Microsecond, pkt)
			star.Net.ReleasePacket(pkt)
			if cc.CurrentRate() < 0 {
				t.Errorf("negative rate %v", cc.CurrentRate())
			}
		})
	}
}

// TestMixSingleProtocolMatchesStack pins the fast path: a Mix hosting
// one protocol installs each element directly, as a one-protocol stack
// would: every port and host carries the protocol's own element, never a
// per-flow demultiplexer (portMux, receiverMux).
func TestMixSingleProtocolMatchesStack(t *testing.T) {
	for _, p := range AllProtocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			engine := sim.New()
			star := topology.BuildStar(engine, 3, 4, netsim.Gbps(40))
			mix := NewMix(star.Net, 0)
			mix.Activate(p)
			mix.EnableAllSwitchPorts()
			mix.AttachReceivers()
			for _, sw := range star.Net.Switches() {
				for _, port := range sw.Ports() {
					if cc := mix.ports[port].ccs[0]; port.CC != cc {
						t.Fatalf("%s port %d: CC %T, want the protocol's element %T", sw.Name, port.Index, port.CC, cc)
					}
				}
			}
			for _, h := range star.Net.Hosts() {
				if hook := mix.receivers[h].hooks[0]; hook != nil && h.Receiver != hook {
					t.Fatalf("host %s: receiver %T, want the protocol's hook %T", h.Name, h.Receiver, hook)
				}
			}
		})
	}
}

// TestMixedFabricEngagesBothMachineries is the tentpole's end-to-end
// check: RoCC and DCQCN flows sharing one bottleneck, each seeing only
// its own protocol's elements — RoCC's CP paces its flows via switch
// CNPs while DCQCN's receiver echoes marks for the others.
func TestMixedFabricEngagesBothMachineries(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 4, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	mix.Activate(ProtoRoCC)
	mix.Activate(ProtoDCQCN)
	mix.EnableAllSwitchPorts()
	mix.AttachReceivers()

	var flows []*netsim.Flow
	for i, src := range star.Sources {
		p := ProtoRoCC
		if i%2 == 1 {
			p = ProtoDCQCN
		}
		flows = append(flows, mix.StartFlow(p, src, star.Dst, -1, netsim.Gbps(36)))
	}
	engine.RunUntil(20 * sim.Millisecond)

	if name := netsim.CCProtocolName(star.Bottleneck.CC); !strings.Contains(name, "RoCC") || !strings.Contains(name, "DCQCN") {
		t.Errorf("bottleneck attachment %q does not compose both protocols", name)
	}
	cp := mix.CPs[star.Bottleneck]
	if cp == nil {
		t.Fatal("RoCC CP missing from the mixed bottleneck")
	}
	if cp.CNPsSent == 0 {
		t.Error("RoCC CP sent no CNPs — its machinery never engaged")
	}
	rs := mix.receivers[star.Dst]
	if rs == nil {
		t.Fatal("no receiver state at the destination")
	}
	var dcqcnCNPs uint64
	for i, proto := range rs.protos {
		if proto == ProtoDCQCN {
			dcqcnCNPs = rs.hooks[i].(*dcqcn.Receiver).CNPsSent
		}
	}
	if dcqcnCNPs == 0 {
		t.Error("DCQCN receiver sent no CNPs — its machinery never engaged")
	}
	for i, f := range flows {
		if f.DeliveredBytes() == 0 {
			t.Errorf("flow %d (%s) delivered nothing", i, f.Scheme().Name())
		}
	}
	if d := star.Net.TotalDrops(); d != 0 {
		t.Errorf("%d drops on the mixed lossless fabric", d)
	}
}

// TestMixedRunDeterministic replays the mixed-fabric workload under one
// seed and requires byte-identical per-flow outcomes — the soak log's
// replayability contract extended to mixed protocols.
func TestMixedRunDeterministic(t *testing.T) {
	run := func() []int64 {
		engine := sim.New()
		star := topology.BuildStar(engine, 7, 6, netsim.Gbps(40))
		mix := NewMix(star.Net, 0)
		mix.Activate(ProtoRoCC)
		mix.Activate(ProtoHPCC)
		mix.EnableAllSwitchPorts()
		mix.AttachReceivers()
		var flows []*netsim.Flow
		for i, src := range star.Sources {
			p := ProtoRoCC
			if i%2 == 1 {
				p = ProtoHPCC
			}
			flows = append(flows, mix.StartFlow(p, src, star.Dst, 400_000, 0))
		}
		engine.RunUntil(15 * sim.Millisecond)
		var out []int64
		for _, f := range flows {
			out = append(out, f.DeliveredBytes())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d: %d bytes vs %d on replay", i, a[i], b[i])
		}
	}
}

// TestTimelyAckCadenceFollowsConfig pins the satellite bugfix: the flow
// ACK cadence must come from the TIMELY configuration of the source's
// NIC rate, for the descriptor and the flow it starts alike.
func TestTimelyAckCadenceFollowsConfig(t *testing.T) {
	for _, gbps := range []float64{40, 100} {
		engine := sim.New()
		star := topology.BuildStar(engine, 1, 2, netsim.Gbps(gbps))
		mix := NewMix(star.Net, 0)
		want := timely.DefaultConfig(gbps).AckEvery
		if got := mix.Ops(ProtoTIMELY).AckEvery(star.Sources[0]); got != want {
			t.Errorf("%gG: AckEvery = %d, want %d", gbps, got, want)
		}
		f := mix.StartFlow(ProtoTIMELY, star.Sources[0], star.Dst, 10_000, 0)
		if f.AckEvery != want {
			t.Errorf("%gG: flow AckEvery = %d, want %d", gbps, f.AckEvery, want)
		}
	}
}

// TestEnablePortForeignAttachmentPanics pins the double-attach
// satellite: a port owned by something outside the Mix is a named
// conflict, never a silent overwrite.
func TestEnablePortForeignAttachmentPanics(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	foreign := NewMix(star.Net, 0)
	foreign.EnablePort(ProtoDCQCN, star.Bottleneck)

	mix := NewMix(star.Net, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("enabling over a foreign attachment did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "DCQCN") || !strings.Contains(msg, "RoCC") {
			t.Errorf("panic %q does not name both protocols", msg)
		}
	}()
	mix.EnablePort(ProtoRoCC, star.Bottleneck)
}

// TestEnablePortIdempotentPerProtocol pins the other half of the
// satellite: re-enabling the same protocol must not stack a second
// element (RoCC's CP runs a fair-rate ticker; stacking doubled it).
func TestEnablePortIdempotentPerProtocol(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	mix.EnablePort(ProtoRoCC, star.Bottleneck)
	first := star.Bottleneck.CC
	cp := mix.CPs[star.Bottleneck]
	mix.EnablePort(ProtoRoCC, star.Bottleneck)
	mix.EnableAllSwitchPorts()
	if star.Bottleneck.CC != first {
		t.Error("repeat EnablePort replaced the attachment")
	}
	if mix.CPs[star.Bottleneck] != cp {
		t.Error("repeat EnablePort built a second CP")
	}
	if n := len(mix.ports[star.Bottleneck].protos); n != 1 {
		t.Errorf("port records %d attachments, want 1", n)
	}
}

// TestINTHopCapIsMaxOverMix pins the presizing satellite: HPCC joining a
// fabric raises the INT capacity no matter which protocol activated
// first, and non-INT mixes leave it at zero.
func TestINTHopCapIsMaxOverMix(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	mix.Activate(ProtoDCQCN)
	if star.Net.INTHopCap != 0 {
		t.Errorf("INTHopCap = %d before any INT protocol", star.Net.INTHopCap)
	}
	mix.Activate(ProtoHPCC)
	if star.Net.INTHopCap != hpcc.DefaultINTHops {
		t.Errorf("INTHopCap = %d after HPCC joined, want %d", star.Net.INTHopCap, hpcc.DefaultINTHops)
	}
	mix.Activate(ProtoRoCC)
	if star.Net.INTHopCap != hpcc.DefaultINTHops {
		t.Errorf("INTHopCap dropped to %d after a later activation", star.Net.INTHopCap)
	}
}

// TestMixedSteadyStateAllocs is the alloc-gate regression for the INT
// presizing fix: a mixed DCQCN+HPCC fabric in steady state must not
// allocate per event — INT arrays come presized from the pool even
// though HPCC was not the first (or only) protocol on the network.
func TestMixedSteadyStateAllocs(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 4, netsim.Gbps(40))
	mix := NewMix(star.Net, 0)
	mix.Activate(ProtoDCQCN)
	mix.Activate(ProtoHPCC)
	mix.EnableAllSwitchPorts()
	mix.AttachReceivers()
	for i, src := range star.Sources {
		p := ProtoDCQCN
		if i%2 == 1 {
			p = ProtoHPCC
		}
		mix.StartFlow(p, src, star.Dst, -1, 0)
	}
	for i := 0; i < 200_000; i++ {
		engine.Step()
	}
	const batch = 1000
	allocsPerBatch := testing.AllocsPerRun(50, func() {
		for i := 0; i < batch; i++ {
			engine.Step()
		}
	})
	perEvent := allocsPerBatch / batch
	t.Logf("mixed steady state: %.4f allocs/event", perEvent)
	if perEvent > 1 {
		t.Fatalf("mixed steady-state stepping allocates %.2f objects/event, want <=1 (target 0)", perEvent)
	}
}

// TestRolloutProducesPerProtocolRows smoke-tests the rollout experiment:
// a 50/50 RoCC/DCQCN fabric must report one row per protocol with live
// goodput and completed FCT probes.
func TestRolloutProducesPerProtocolRows(t *testing.T) {
	rows := RunRollout(RolloutConfig{
		Shares:       RoCCShares(0.5),
		Seed:         1,
		Duration:     8 * sim.Millisecond,
		HostsPerEdge: 4,
		FCTBytes:     200_000,
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Flows != 2 {
			t.Errorf("%s: %d flows, want 2", r.Proto, r.Flows)
		}
		if r.MeanGbps <= 0 {
			t.Errorf("%s: no goodput", r.Proto)
		}
		if r.Jain <= 0 || r.Jain > 1 {
			t.Errorf("%s: Jain %v out of range", r.Proto, r.Jain)
		}
		if r.FCTMeanMs <= 0 {
			t.Errorf("%s: no FCT probes completed", r.Proto)
		}
	}
}

// TestRolloutShortRunEnds runs the rollout at 3 ns, where a quarter of
// the duration truncates to 0 and a straggler loop stepping by it never
// ends. The run goes on a goroutine so a hang fails with a message
// instead of the suite's timeout.
func TestRolloutShortRunEnds(t *testing.T) {
	done := make(chan []RolloutRow, 1)
	go func() { done <- RunRollout(RolloutConfig{Seed: 1, Duration: 3 * sim.Nanosecond}) }()
	select {
	case rows := <-done:
		if len(rows) != 2 {
			t.Errorf("got %d rows, want 2", len(rows))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunRollout at a 3 ns duration did not return within 30 s")
	}
}

// TestParseMixSpec covers the CLI mix grammar.
func TestParseMixSpec(t *testing.T) {
	shares, err := ParseMixSpec("rocc:0.5, dcqcn:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 2 || shares[0].Proto != ProtoRoCC || shares[0].Frac != 0.5 {
		t.Errorf("unexpected shares %+v", shares)
	}
	shares, err = ParseMixSpec("rocc:3,hpcc:1")
	if err != nil {
		t.Fatal(err)
	}
	if shares[0].Frac != 0.75 || shares[1].Frac != 0.25 {
		t.Errorf("fractions not normalized: %+v", shares)
	}
	if _, err := ParseMixSpec("rocc:0.5,rocc:0.5"); err == nil {
		t.Error("duplicate protocol accepted")
	}
	if _, err := ParseMixSpec("nosuch:1"); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := ParseMixSpec(""); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := ParseMixSpec("rocc:0,dcqcn:0"); err == nil {
		t.Error("all-zero fractions accepted")
	}
	if _, err := ParseMixSpec("rocc:1e308,dcqcn:1e308"); err == nil {
		t.Error("fractions summing to +Inf accepted")
	}
}

// FuzzParseMixSpec: any spec either fails to parse or yields distinct
// protocols whose fractions lie in [0, 1] and sum to 1.
func FuzzParseMixSpec(f *testing.F) {
	for _, seed := range []string{
		"rocc:0.5,dcqcn:0.5", "rocc:3, hpcc:1", "rocc", "rocc,dcqcn+pi:2",
		"rocc:0,dcqcn:0", "rocc:1e308,dcqcn:1e308", "rocc:5e-324,qcn:1e-320",
		"rocc:0.5,rocc:0.5", "nosuch:1", "", ",", "timely:NaN", "dctcp:-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		shares, err := ParseMixSpec(spec)
		if err != nil {
			return
		}
		seen := map[Protocol]bool{}
		sum := 0.0
		for _, s := range shares {
			if !(s.Frac >= 0 && s.Frac <= 1) {
				t.Errorf("%q: %s fraction %v outside [0, 1]", spec, s.Proto, s.Frac)
			}
			if seen[s.Proto] {
				t.Errorf("%q: %s listed twice", spec, s.Proto)
			}
			seen[s.Proto] = true
			sum += s.Frac
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%q: fractions %+v sum to %v, want 1", spec, shares, sum)
		}
	})
}

// TestAssignShares pins the deterministic slot split.
func TestAssignShares(t *testing.T) {
	got := AssignShares([]MixShare{{ProtoRoCC, 0.25}, {ProtoDCQCN, 0.75}}, 8)
	want := []Protocol{ProtoRoCC, ProtoRoCC, ProtoDCQCN, ProtoDCQCN, ProtoDCQCN, ProtoDCQCN, ProtoDCQCN, ProtoDCQCN}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	// Every slot is assigned even under rounding pressure.
	for _, p := range AssignShares([]MixShare{{ProtoRoCC, 1.0 / 3}, {ProtoDCQCN, 1.0 / 3}, {ProtoHPCC, 1.0 / 3}}, 7) {
		if p == "" {
			t.Fatal("unassigned slot")
		}
	}
}
