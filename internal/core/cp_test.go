package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigAnchors(t *testing.T) {
	c40 := CPConfig40G()
	if c40.QrefBytes != 150000 || c40.QmidBytes != 300000 || c40.QmaxBytes != 360000 {
		t.Errorf("40G thresholds = %d/%d/%d", c40.QrefBytes, c40.QmidBytes, c40.QmaxBytes)
	}
	if c40.FmaxMbps != 40000 || c40.FminMbps != 100 {
		t.Errorf("40G rates = %v/%v", c40.FminMbps, c40.FmaxMbps)
	}
	if c40.AlphaTilde != 0.3 || c40.BetaTilde != 1.5 {
		t.Errorf("40G gains = %v/%v", c40.AlphaTilde, c40.BetaTilde)
	}
	c100 := CPConfig100G()
	if c100.QrefBytes != 300000 || c100.FmaxMbps != 100000 {
		t.Errorf("100G config = %+v", c100)
	}
	if c100.AlphaTilde != 0.45 || c100.BetaTilde != 2.25 {
		t.Errorf("100G gains = %v/%v", c100.AlphaTilde, c100.BetaTilde)
	}
}

func TestConfigForGbpsAnchorsExact(t *testing.T) {
	if CPConfigForGbps(40) != CPConfig40G() {
		t.Error("CPConfigForGbps(40) != CPConfig40G()")
	}
	if CPConfigForGbps(100) != CPConfig100G() {
		t.Error("CPConfigForGbps(100) != CPConfig100G()")
	}
}

func TestConfigForGbpsScaling(t *testing.T) {
	c10 := CPConfigForGbps(10)
	// Sub-40G links floor at the paper's §6.2 testbed thresholds.
	if c10.QrefBytes != 75000 || c10.QmidBytes != 150000 || c10.QmaxBytes != 210000 {
		t.Errorf("10G thresholds = %d/%d/%d, want 75/150/210 KB", c10.QrefBytes, c10.QmidBytes, c10.QmaxBytes)
	}
	if c10.FmaxMbps != 10000 {
		t.Errorf("10G Fmax = %v", c10.FmaxMbps)
	}
	if c10.AlphaTilde != 0.3 {
		t.Errorf("10G alpha = %v, want unchanged 0.3", c10.AlphaTilde)
	}
	c60 := CPConfigForGbps(60)
	if err := c60.Validate(); err != nil {
		t.Errorf("60G config invalid: %v", err)
	}
	if c60.AlphaTilde <= 0.3 || c60.AlphaTilde >= 0.45 {
		t.Errorf("60G alpha = %v, want between anchors", c60.AlphaTilde)
	}
}

func TestConfigValidate(t *testing.T) {
	base := CPConfig40G()
	bad := []func(*CPConfig){
		func(c *CPConfig) { c.DeltaQBytes = 0 },
		func(c *CPConfig) { c.DeltaFMbps = 0 },
		func(c *CPConfig) { c.QmidBytes = c.QmaxBytes + 1 },
		func(c *CPConfig) { c.QrefBytes = c.QmidBytes },
		func(c *CPConfig) { c.QrefBytes = 0 },
		func(c *CPConfig) { c.FminMbps = 0 },
		func(c *CPConfig) { c.FmaxMbps = c.FminMbps },
		func(c *CPConfig) { c.AlphaTilde = 0 },
		func(c *CPConfig) { c.BetaTilde = -1 },
		func(c *CPConfig) { c.MaxLevel = 1 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config passed Validate", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewCPPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCP with invalid config did not panic")
		}
	}()
	NewCP(CPConfig{})
}

func TestInitialFairRateIsFmax(t *testing.T) {
	cp := NewCP(CPConfig40G())
	if got := cp.FairRateMbps(); got != 40000 {
		t.Errorf("initial rate = %v, want Fmax", got)
	}
}

// piTwin returns a CP with cfg but multiplicative decrease disabled: fed
// the same observations, it shows the rate the PI path alone would reach,
// so an MD test can tell that MD, and not the PI law, set the rate.
func piTwin(cfg CPConfig) *CP {
	cfg.DisableMD = true
	return NewCP(cfg)
}

func TestMDFloorOnQmax(t *testing.T) {
	cp, twin := NewCP(CPConfig40G()), piTwin(CPConfig40G())
	cp.Update(360000) // Qcur >= Qmax with F = Fmax > Fmax/8
	twin.Update(360000)
	if got := cp.FairRateMbps(); got != 100 {
		t.Errorf("rate after MD floor = %v, want Fmin=100", got)
	}
	if twin.FairRateMbps() == 100 {
		t.Fatal("the PI path alone reaches Fmin here; the test cannot see the floor")
	}
}

func TestMDHalveOnGrowth(t *testing.T) {
	cp, twin := NewCP(CPConfig40G()), piTwin(CPConfig40G())
	cp.Update(10000) // establish Qold small; PI path
	twin.Update(10000)
	before := cp.FairRateMbps()
	cp.Update(10000 + 330000) // growth > Qmid (but below Qmax trigger at F high? Qcur=340000 < Qmax)
	twin.Update(10000 + 330000)
	if got := cp.FairRateMbps(); math.Abs(got-before/2) > 1 {
		t.Errorf("rate after MD halve = %v, want ~%v", got, before/2)
	}
	if math.Abs(twin.FairRateMbps()-before/2) <= 1 {
		t.Fatal("the PI path alone halves the rate here; the test cannot see MD")
	}
}

func TestMDSkippedWhenRateAlreadyLow(t *testing.T) {
	cp, twin := NewCP(CPConfig40G()), piTwin(CPConfig40G())
	cp.setFairRateMbps(40000.0 / 8) // exactly Fmax/8: not > Fmax/8
	twin.setFairRateMbps(40000.0 / 8)
	cp.Update(400000)
	twin.Update(400000)
	if got, want := cp.FairRateMbps(), twin.FairRateMbps(); got != want || got == 100 {
		t.Errorf("rate = %v, want the PI result %v: MD fired although F <= Fmax/8", got, want)
	}
}

func TestMDFloorPrecedesHalve(t *testing.T) {
	cp := NewCP(CPConfig40G())
	// Both conditions true: queue above Qmax and huge growth. The floor
	// gives Fmin; the halve would give Fmax/2.
	cp.Update(500000)
	if got := cp.FairRateMbps(); got != 100 {
		t.Errorf("rate = %v, want Fmin=100 (floor before halve)", got)
	}
}

func TestDisableMD(t *testing.T) {
	cfg := CPConfig40G()
	cfg.DisableMD = true
	cp := NewCP(cfg)
	cp.Update(500000)
	if got := cp.FairRateMbps(); got == 100 || got == 20000 {
		t.Errorf("rate = %v: MD (floor to Fmin or halve to Fmax/2) fired despite DisableMD", got)
	}
	if cp.FairRateMbps() >= 40000 {
		t.Error("PI path did not reduce the rate")
	}
}

func TestPIDecreasesAboveRef(t *testing.T) {
	cfg := CPConfig40G()
	cfg.DisableMD = true
	cp := NewCP(cfg)
	cp.setFairRateMbps(20000)
	cp.Update(200000) // above Qref, growing from 0
	if cp.FairRateMbps() >= 20000 {
		t.Error("rate did not decrease with queue above reference")
	}
}

func TestPIIncreasesBelowRef(t *testing.T) {
	cfg := CPConfig40G()
	cfg.DisableMD = true
	cp := NewCP(cfg)
	cp.setFairRateMbps(20000)
	// A steady queue below Qref must pull the rate up once the initial
	// derivative transient (Qold starts at zero) has passed.
	for i := 0; i < 30; i++ {
		cp.Update(100000)
	}
	if cp.FairRateMbps() <= 20000 {
		t.Error("rate did not increase with queue below reference")
	}
}

func TestPIStableAtReference(t *testing.T) {
	cfg := CPConfig40G()
	cfg.DisableMD = true
	cp := NewCP(cfg)
	cp.setFairRateMbps(20000)
	cp.Update(cfg.QrefBytes) // absorbs the Qold=0 transient
	ref := cp.FairRateMbps()
	cp.Update(cfg.QrefBytes) // Q = Qref, no trend: equilibrium
	if got := cp.FairRateMbps(); math.Abs(got-ref) > 1e-9 {
		t.Errorf("rate moved at equilibrium: %v -> %v", ref, got)
	}
}

func TestClampToBounds(t *testing.T) {
	cfg := CPConfig40G()
	cfg.DisableMD = true
	cp := NewCP(cfg)
	for i := 0; i < 200; i++ {
		cp.Update(0) // deep underload: rate must not exceed Fmax
	}
	if got := cp.FairRateMbps(); got != 40000 {
		t.Errorf("rate = %v, want clamped at Fmax", got)
	}
	for i := 0; i < 2000; i++ {
		cp.Update(10_000_000) // overload: rate must not go below Fmin
	}
	if got := cp.FairRateMbps(); got != 100 {
		t.Errorf("rate = %v, want clamped at Fmin", got)
	}
}

func TestAutoTuneLevels(t *testing.T) {
	cp := NewCP(CPConfig40G())
	cases := []struct {
		rateMbps float64
		level    int
	}{
		{30000, 2}, // F >= Fmax/2
		{15000, 4}, // Fmax/4 <= F < Fmax/2
		{8000, 8},
		{4000, 16},
		{2000, 32},
		{900, 64},
		{100, 64}, // capped at MaxLevel
	}
	cfg := CPConfig40G()
	for _, c := range cases {
		cp.setFairRateMbps(c.rateMbps)
		ratio := float64(c.level / 2)
		if alpha, beta := cp.autoTune(); alpha != cfg.AlphaTilde/ratio || beta != cfg.BetaTilde/ratio {
			t.Errorf("F=%v: gains %v, %v, want level %d's α̃/%v, β̃/%v", c.rateMbps, alpha, beta, c.level, ratio, ratio)
		}
	}
}

func TestDisableAutoTune(t *testing.T) {
	cfg := CPConfig40G()
	cfg.DisableAutoTune = true
	cp := NewCP(cfg)
	cp.setFairRateMbps(100)
	if alpha, beta := cp.autoTune(); alpha != cfg.AlphaTilde || beta != cfg.BetaTilde {
		t.Errorf("gains %v, %v with auto-tune disabled, want α̃, β̃ (level 2)", alpha, beta)
	}
}

func TestFairRateUnitsRounding(t *testing.T) {
	cp := NewCP(CPConfig40G())
	cp.setFairRateMbps(104) // 10.4 units
	if got := cp.FairRateUnits(); got != 10 {
		t.Errorf("units = %d, want 10", got)
	}
	cp.setFairRateMbps(106) // 10.6 units
	if got := cp.FairRateUnits(); got != 11 {
		t.Errorf("units = %d, want 11", got)
	}
}

// fluidLoop simulates the §5.1 queue dynamic against the real CP: N flows
// paced exactly at the broadcast fair rate into a link of capacity
// linkMbps, updated every T = 40 µs.
func fluidLoop(cp *CP, n int, linkMbps float64, steps int) (qBytes float64) {
	const T = 40e-6
	q := 0.0
	for i := 0; i < steps; i++ {
		units := cp.Update(int(q))
		rateMbps := float64(units) * cp.Config().DeltaFMbps
		input := rateMbps * float64(n)
		q += (input - linkMbps) * 1e6 / 8 * T
		if q < 0 {
			q = 0
		}
	}
	return q
}

func TestFluidConvergenceToFairShare(t *testing.T) {
	for _, n := range []int{2, 5, 10, 50, 100} {
		cp := NewCP(CPConfig40G())
		q := fluidLoop(cp, n, 40000, 3000) // 120 ms
		want := 40000.0 / float64(n)
		got := cp.FairRateMbps()
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("N=%d: fair rate = %.1f, want ~%.1f", n, got, want)
		}
		ref := float64(CPConfig40G().QrefBytes)
		if math.Abs(q-ref)/ref > 0.35 {
			t.Errorf("N=%d: queue = %.0f, want ~%.0f", n, q, ref)
		}
	}
}

// Property: for random N and link speed, the fluid loop's fair rate lands
// near capacity/N — the Eq. 1 fixed point.
func TestFluidFixedPointProperty(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw%64) + 2
		gbps := []float64{40, 100}[int(gRaw)%2]
		cp := NewCP(CPConfigForGbps(gbps))
		fluidLoop(cp, n, gbps*1000, 4000)
		want := gbps * 1000 / float64(n)
		return math.Abs(cp.FairRateMbps()-want)/want < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the fair rate always stays within [Fmin, Fmax] whatever queue
// sequence is observed.
func TestRateBoundsProperty(t *testing.T) {
	f := func(queues []uint32) bool {
		cp := NewCP(CPConfig40G())
		for _, q := range queues {
			cp.Update(int(q % 2_000_000))
			r := cp.FairRateMbps()
			if r < 100-1e-9 || r > 40000+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// setFairRateMbps overrides the controller's fair rate, clamped to
// [Fmin, Fmax].
func (cp *CP) setFairRateMbps(mbps float64) {
	cp.f = min(max(mbps/cp.cfg.DeltaFMbps, cp.fmin), cp.fmax)
}
