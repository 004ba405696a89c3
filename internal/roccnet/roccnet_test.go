package roccnet

import (
	"math"
	"testing"

	"rocc/internal/core"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func TestFairnessAcrossN(t *testing.T) {
	for _, n := range []int{2, 5, 10} {
		engine := sim.New()
		net, srcs, dst, cp := buildStar(t, engine, n, 40)
		var flows []*netsim.Flow
		for _, src := range srcs {
			flows = append(flows, net.StartFlow(src, dst, netsim.FlowConfig{
				Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(src, RPOptions{}),
			}))
		}
		engine.RunUntil(15 * sim.Millisecond)
		want := 40000.0 / float64(n)
		if got := cp.FairRateMbps(); math.Abs(got-want)/want > 0.1 {
			t.Errorf("N=%d: fair rate %v, want ~%v", n, got, want)
		}
		var min, max int64 = 1 << 62, 0
		for _, f := range flows {
			d := f.DeliveredBytes()
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if float64(max-min)/float64(max) > 0.25 {
			t.Errorf("N=%d: delivered spread %d..%d too wide", n, min, max)
		}
	}
}

func TestQueueStabilizesAtQref(t *testing.T) {
	engine := sim.New()
	net, srcs, dst, cp := buildStar(t, engine, 4, 40)
	for _, src := range srcs {
		net.StartFlow(src, dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(src, RPOptions{}),
		})
	}
	var sum, count float64
	engine.NewTicker(100*sim.Microsecond, func() {
		if engine.Now() > 8*sim.Millisecond {
			sum += float64(cp.port.DataQueueBytes())
			count++
		}
	})
	engine.RunUntil(16 * sim.Millisecond)
	avg := sum / count
	if math.Abs(avg-150_000) > 30_000 {
		t.Errorf("steady queue %f bytes, want ~Qref=150000", avg)
	}
}

// cnpSpy counts, by congestion point, the CNPs its flow receives.
type cnpSpy struct {
	*FlowCC
	cps map[netsim.CPID]int
}

func (s *cnpSpy) OnCNP(now sim.Time, pkt *netsim.Packet) {
	s.cps[pkt.CNP().CP]++
	s.FlowCC.OnCNP(now, pkt)
}

func TestCNPCarriesCPIdentity(t *testing.T) {
	engine := sim.New()
	net, srcs, dst, cp := buildStar(t, engine, 2, 40)
	cc := &cnpSpy{FlowCC: NewFlowCC(srcs[0], RPOptions{}), cps: map[netsim.CPID]int{}}
	net.StartFlow(srcs[0], dst, netsim.FlowConfig{Size: -1, MaxRate: netsim.Gbps(36), CC: cc})
	net.StartFlow(srcs[1], dst, netsim.FlowConfig{
		Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(srcs[1], RPOptions{}),
	})
	engine.RunUntil(5 * sim.Millisecond)
	if !cc.RP().Installed() {
		t.Fatal("rate limiter never installed")
	}
	want := netsim.CPID{Node: cp.sw.ID(), Port: cp.port.Index}
	if len(cc.cps) != 1 || cc.cps[want] == 0 {
		t.Errorf("CNPs by CP = %v, want all from %+v", cc.cps, want)
	}
}

func TestFastRecoveryUninstallsAfterCongestionEnds(t *testing.T) {
	engine := sim.New()
	net, srcs, dst, _ := buildStar(t, engine, 2, 40)
	cc0 := NewFlowCC(srcs[0], RPOptions{})
	f0 := net.StartFlow(srcs[0], dst, netsim.FlowConfig{Size: -1, MaxRate: netsim.Gbps(36), CC: cc0})
	f1 := net.StartFlow(srcs[1], dst, netsim.FlowConfig{
		Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(srcs[1], RPOptions{}),
	})
	engine.RunUntil(8 * sim.Millisecond)
	if !cc0.RP().Installed() {
		t.Fatal("RL not installed under congestion")
	}
	f1.Stop() // congestion ends; offered 36 < 40, queue drains
	engine.RunUntil(20 * sim.Millisecond)
	if cc0.RP().Installed() {
		t.Errorf("RL still installed %v after congestion ended (rate %v)",
			engine.Now(), cc0.RP().RateMbps())
	}
	// The freed flow must be back near its offered rate.
	before := f0.DeliveredBytes()
	engine.RunUntil(25 * sim.Millisecond)
	gbps := float64(f0.DeliveredBytes()-before) * 8 / 0.005 / 1e9
	if gbps < 33 {
		t.Errorf("post-recovery goodput %.1f Gb/s, want ~36", gbps)
	}
}

func TestMinSignalSuppressesIdleCNPs(t *testing.T) {
	engine := sim.New()
	net, srcs, dst, cp := buildStar(t, engine, 1, 40)
	// A single source at 50% load never congests the bottleneck.
	net.StartFlow(srcs[0], dst, netsim.FlowConfig{
		Size: -1, MaxRate: netsim.Gbps(20), CC: NewFlowCC(srcs[0], RPOptions{}),
	})
	engine.RunUntil(5 * sim.Millisecond)
	if cp.CNPsSent != 0 {
		t.Errorf("%d CNPs sent on an uncongested port", cp.CNPsSent)
	}
}

// burstStar is buildStar with n sources sending 36G into the 40G
// bottleneck, its CP configured by cfg.
func burstStar(t *testing.T, n int, cfg core.CPConfig) (*sim.Engine, *CP) {
	engine := sim.New()
	net, srcs, dst, cp := buildStarCP(t, engine, n, 40, CPOptions{Core: cfg})
	for _, src := range srcs {
		net.StartFlow(src, dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(src, RPOptions{}),
		})
	}
	return engine, cp
}

// TestStopCancelsCPTicker stops one of two identical congested CPs: the
// running one keeps sending CNPs, the stopped one's CNP count and fair
// rate stay frozen.
func TestStopCancelsCPTicker(t *testing.T) {
	cfg := core.CPConfigForGbps(40)
	engine, cp := burstStar(t, 4, cfg)
	twinEngine, twin := burstStar(t, 4, cfg)
	engine.RunUntil(sim.Millisecond)
	twinEngine.RunUntil(sim.Millisecond)
	cp.Stop()
	sent, rate, twinSent := cp.CNPsSent, cp.FairRateMbps(), twin.CNPsSent
	engine.RunUntil(5 * sim.Millisecond)
	twinEngine.RunUntil(5 * sim.Millisecond)
	if twin.CNPsSent == twinSent {
		t.Fatal("the running CP sent no CNPs either; the test cannot see Stop")
	}
	if cp.CNPsSent != sent || cp.FairRateMbps() != rate {
		t.Errorf("CP still updating after Stop: CNPs %d -> %d, fair rate %v -> %v",
			sent, cp.CNPsSent, rate, cp.FairRateMbps())
	}
}

// TestMDEngagesOnBurst samples the fair rate every microsecond of an
// 8x36G burst into 40G: MD's floor drives it to Fmin, which the PI law
// alone (the DisableMD twin) does not reach.
func TestMDEngagesOnBurst(t *testing.T) {
	minRate := func(disableMD bool) float64 {
		cfg := core.CPConfigForGbps(40)
		cfg.DisableMD = disableMD
		engine, cp := burstStar(t, 8, cfg)
		lowest := cp.FairRateMbps()
		engine.NewTicker(sim.Microsecond, func() { lowest = min(lowest, cp.FairRateMbps()) })
		engine.RunUntil(2 * sim.Millisecond)
		return lowest
	}
	fmin := core.CPConfigForGbps(40).FminMbps
	if got := minRate(true); got <= fmin {
		t.Fatalf("the PI law alone reaches Fmin (%v Mb/s); the test cannot see MD", got)
	}
	if got := minRate(false); got > fmin {
		t.Errorf("8x36G burst into 40G did not trigger MD: lowest fair rate %v Mb/s, want Fmin %v", got, fmin)
	}
}

func TestCNPsAreICMPLikeAndPrioritized(t *testing.T) {
	engine := sim.New()
	net, srcs, dst, cp := buildStar(t, engine, 4, 40)
	for _, src := range srcs {
		net.StartFlow(src, dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(src, RPOptions{}),
		})
	}
	engine.RunUntil(5 * sim.Millisecond)
	if cp.CNPsSent == 0 {
		t.Fatal("no CNPs under congestion")
	}
	total := uint64(0)
	for _, src := range srcs {
		total += src.CNPsRx
	}
	if total == 0 {
		t.Fatal("CNPs never delivered to sources")
	}
}

// TestOnCNPRejectsMalformedFeedback: garbage feedback — whether a
// mangled fair rate (switch-computed mode) or a mangled queue
// observation (host-computed mode) — must be counted and discarded
// before it can steer the rate or poison the host-side CP replica.
func TestOnCNPRejectsMalformedFeedback(t *testing.T) {
	engine := sim.New()
	_, srcs, _, _ := buildStar(t, engine, 1, 40)
	cc := NewFlowCC(srcs[0], RPOptions{})
	cpid := netsim.CPID{Node: 3}
	cnp := func(info netsim.CNPInfo) *netsim.Packet {
		info.CP = cpid
		pkt := &netsim.Packet{Kind: netsim.KindCNP}
		*pkt.EnsureCNP() = info
		return pkt
	}
	cc.OnCNP(engine.Now(), cnp(netsim.CNPInfo{RateUnits: 200}))
	if !cc.RP().Installed() {
		t.Fatal("valid CNP did not install the rate limiter")
	}
	rate := cc.RP().RateMbps()

	cc.OnCNP(engine.Now(), cnp(netsim.CNPInfo{RateUnits: -1}))
	cc.OnCNP(engine.Now(), cnp(netsim.CNPInfo{RateUnits: 1 << 30}))
	cc.OnCNP(engine.Now(), cnp(netsim.CNPInfo{HostComputed: true, QCurUnits: -5, QOldUnits: 2}))
	cc.OnCNP(engine.Now(), cnp(netsim.CNPInfo{HostComputed: true, QCurUnits: 1 << 30, QOldUnits: 0}))
	if got := cc.RP().CNPsRejected; got != 4 {
		t.Errorf("CNPsRejected = %d, want 4", got)
	}
	if cc.RP().RateMbps() != rate {
		t.Errorf("rate moved from %v to %v on rejected feedback", rate, cc.RP().RateMbps())
	}
	// The host replica must not have been created/advanced by the
	// rejected observations: a valid host-computed CNP now computes from
	// clean state and still works.
	cc.OnCNP(engine.Now(), cnp(netsim.CNPInfo{HostComputed: true, QCurUnits: 10, QOldUnits: 8}))
	if cc.RP().CNPsRejected != 4 {
		t.Error("valid host-computed CNP rejected")
	}
}
