package core

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func newTestRP() *RP {
	return NewRP(RPConfig{DeltaFMbps: 10, RmaxMbps: 40000})
}

// newStaleRP enables the opt-in staleness handling.
func newStaleRP() *RP {
	return NewRP(RPConfig{DeltaFMbps: 10, RmaxMbps: 40000, StaleK: DefaultStaleK})
}

func TestRPConfigValidate(t *testing.T) {
	if (RPConfig{DeltaFMbps: 0, RmaxMbps: 1}).Validate() == nil {
		t.Error("zero ΔF accepted")
	}
	if (RPConfig{DeltaFMbps: 1, RmaxMbps: 0}).Validate() == nil {
		t.Error("zero Rmax accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRP with invalid config did not panic")
		}
	}()
	NewRP(RPConfig{})
}

func TestRPStartsUninstalled(t *testing.T) {
	rp := newTestRP()
	if rp.Installed() {
		t.Error("new RP should be uninstalled")
	}
	if rp.RateMbps() != 40000 {
		t.Errorf("initial rate = %v, want Rmax", rp.RateMbps())
	}
}

func TestFirstCNPInstalls(t *testing.T) {
	rp := newTestRP()
	cp := CPKey{Node: 1}
	if !rp.ProcessCNP(500, cp) {
		t.Error("first CNP not accepted")
	}
	if !rp.Installed() || rp.RateMbps() != 5000 || rp.cpcur != cp {
		t.Errorf("state after first CNP: installed=%v rate=%v cp=%v",
			rp.Installed(), rp.RateMbps(), rp.cpcur)
	}
}

func TestAcceptLowerRateFromOtherCP(t *testing.T) {
	rp := newTestRP()
	cp1, cp2 := CPKey{Node: 1}, CPKey{Node: 2}
	rp.ProcessCNP(500, cp1)
	if !rp.ProcessCNP(300, cp2) {
		t.Error("lower rate from a different CP must be accepted (Alg. 2 line 4)")
	}
	if rp.RateMbps() != 3000 || rp.cpcur != cp2 {
		t.Errorf("rate=%v cp=%v after accepting lower rate", rp.RateMbps(), rp.cpcur)
	}
}

func TestRejectHigherRateFromOtherCP(t *testing.T) {
	rp := newTestRP()
	cp1, cp2 := CPKey{Node: 1}, CPKey{Node: 2}
	rp.ProcessCNP(300, cp1)
	if rp.ProcessCNP(500, cp2) {
		t.Error("higher rate from a different CP must be ignored")
	}
	if rp.RateMbps() != 3000 || rp.cpcur != cp1 {
		t.Error("state changed by ignored CNP")
	}
	if rp.CNPsIgnored != 1 {
		t.Errorf("CNPsIgnored = %d", rp.CNPsIgnored)
	}
}

func TestAcceptHigherRateFromSameCP(t *testing.T) {
	rp := newTestRP()
	cp1 := CPKey{Node: 1}
	rp.ProcessCNP(300, cp1)
	if !rp.ProcessCNP(500, cp1) {
		t.Error("same-CP CNP must always be accepted")
	}
	if rp.RateMbps() != 5000 {
		t.Errorf("rate = %v, want 5000", rp.RateMbps())
	}
}

func TestFastRecoveryDoubles(t *testing.T) {
	rp := newTestRP()
	rp.ProcessCNP(100, CPKey{Node: 1}) // 1000 Mb/s
	for i, want := range []float64{2000, 4000, 8000, 16000, 32000} {
		if rp.TimerExpired() {
			t.Fatalf("step %d: uninstalled early", i)
		}
		if rp.RateMbps() != want {
			t.Fatalf("step %d: rate = %v, want %v", i, rp.RateMbps(), want)
		}
	}
	// 32000*2 = 64000 > Rmax: one more doubling then uninstall.
	if rp.TimerExpired() {
		t.Fatal("expected one more recovery step before uninstall")
	}
	if !rp.TimerExpired() {
		t.Fatal("rate above Rmax must uninstall the limiter")
	}
	if rp.Installed() {
		t.Error("still installed after uninstall")
	}
	if rp.RateMbps() != 40000 {
		t.Errorf("rate after uninstall = %v, want Rmax", rp.RateMbps())
	}
	if rp.cpcur != NoCP {
		t.Error("CPcur not cleared on uninstall")
	}
}

func TestTimerOnUninstalledRP(t *testing.T) {
	rp := newTestRP()
	if !rp.TimerExpired() {
		t.Error("timer on uninstalled RP should report uninstall")
	}
}

func TestReinstallAfterUninstall(t *testing.T) {
	rp := newTestRP()
	rp.ProcessCNP(4100, CPKey{Node: 1}) // above Rmax
	rp.TimerExpired()                   // uninstalls immediately
	if rp.Installed() {
		t.Fatal("should be uninstalled")
	}
	if !rp.ProcessCNP(200, CPKey{Node: 2}) {
		t.Error("CNP after uninstall must reinstall")
	}
	if rp.RateMbps() != 2000 {
		t.Errorf("rate = %v", rp.RateMbps())
	}
}

// Property: the accept rule guarantees the accepted rate never exceeds
// the minimum of the most recent rates from the flow's current CP.
func TestAcceptRuleNeverRaisesAcrossCPs(t *testing.T) {
	f := func(events []uint16) bool {
		rp := newTestRP()
		for _, e := range events {
			rate := int(e%1000) + 1
			cp := CPKey{Node: int64(e % 3)}
			before := rp.RateMbps()
			sameCP := rp.Installed() && cp == rp.cpcur
			accepted := rp.ProcessCNP(rate, cp)
			if accepted && !sameCP && rp.Installed() && float64(rate)*10 > before && before > 0 && rp.CNPsAccepted > 1 {
				// A different CP may only lower the rate.
				return false
			}
			_ = accepted
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHostCPMatchesSwitchCP(t *testing.T) {
	// The §3.6 host-computed replica must reproduce the switch-side
	// fair-rate sequence exactly when fed the same queue observations.
	cfg := CPConfig40G()
	swCP := NewCP(cfg)
	host := NewHostCP(func(CPKey) CPConfig { return cfg })
	key := CPKey{Node: 9, Port: 1}
	queues := []int{0, 50000, 150000, 300000, 400000, 200000, 150000, 100000, 0, 0}
	qold := 0
	for _, q := range queues {
		units := q / cfg.DeltaQBytes
		want := swCP.Update(units * cfg.DeltaQBytes)
		got := host.Compute(key, units, qold)
		qold = units
		if got != want {
			t.Fatalf("q=%d: host=%d switch=%d", q, got, want)
		}
	}
	if len(host.replicas) != 1 {
		t.Errorf("replicas = %d", len(host.replicas))
	}
}

func TestHostCPTracksPerCPState(t *testing.T) {
	host := NewHostCP(nil) // default registry
	a := host.Compute(CPKey{Node: 1}, 600, 0)
	b := host.Compute(CPKey{Node: 2}, 0, 0)
	if len(host.replicas) != 2 {
		t.Fatalf("replicas = %d, want 2", len(host.replicas))
	}
	// Different queue histories must give independent rates.
	if a == b {
		t.Log("rates equal by coincidence; advancing")
		a = host.Compute(CPKey{Node: 1}, 600, 600)
		b = host.Compute(CPKey{Node: 2}, 0, 0)
		if a == b {
			t.Error("per-CP replicas do not evolve independently")
		}
	}
}

// TestRejectMalformedFeedback fuzzes ProcessCNP with the garbage a
// corrupt wire or buggy CP can produce: every malformed CNP must be
// rejected without touching the rate, the pinned CP or the streak state.
func TestRejectMalformedFeedback(t *testing.T) {
	cp := CPKey{Node: 1}
	evil := CPKey{Node: 666}
	cases := []struct {
		name      string
		rateUnits int
	}{
		{"negative", -1},
		{"very negative", -1 << 40},
		{"bit-flipped high", 1 << 30},
		{"max int", int(^uint(0) >> 1)},
		{"just past bound", 16*40000/10 + 1},
	}
	for _, tc := range cases {
		rp := newTestRP()
		rp.ProcessCNP(500, cp) // install at 5000 Mb/s
		if rp.ProcessCNP(tc.rateUnits, evil) {
			t.Errorf("%s: malformed CNP accepted", tc.name)
		}
		if rp.RateMbps() != 5000 || rp.cpcur != cp {
			t.Errorf("%s: rate=%v cp=%v perturbed by rejected CNP",
				tc.name, rp.RateMbps(), rp.cpcur)
		}
		if rp.CNPsRejected != 1 {
			t.Errorf("%s: CNPsRejected = %d, want 1", tc.name, rp.CNPsRejected)
		}
	}
}

func TestValidCNPBounds(t *testing.T) {
	rp := newTestRP() // Rmax 40000, ΔF 10 → default bound 64000 units
	if !rp.ValidCNP(0) || !rp.ValidCNP(64000) {
		t.Error("in-bound rate units rejected")
	}
	if rp.ValidCNP(-1) || rp.ValidCNP(64001) {
		t.Error("out-of-bound rate units accepted")
	}
	loose := NewRP(RPConfig{DeltaFMbps: 10, RmaxMbps: 40000, MaxRateUnits: -1})
	if !loose.ValidCNP(1 << 40) {
		t.Error("negative MaxRateUnits must disable the upper bound")
	}
	if loose.ValidCNP(-5) {
		t.Error("negative units accepted even with the bound disabled")
	}
	tight := NewRP(RPConfig{DeltaFMbps: 10, RmaxMbps: 40000, MaxRateUnits: 100})
	if tight.ValidCNP(101) || !tight.ValidCNP(100) {
		t.Error("explicit MaxRateUnits not honored")
	}
}

// TestStaleFeedbackUnpinsCP: after StaleK silent recovery intervals the
// RP must unpin its congestion point so feedback from any CP re-homes
// the flow immediately, instead of being ignored against a dead CP.
func TestStaleFeedbackUnpinsCP(t *testing.T) {
	rp := newStaleRP()
	dead := CPKey{Node: 1}
	rp.ProcessCNP(100, dead) // install at 1000 Mb/s, pinned to dead
	for i := 0; i < 2; i++ {
		rp.TimerExpired()
		if rp.cpcur != dead || rp.StaleRecoveries != 0 {
			t.Fatalf("unpinned after only %d expiries", i+1)
		}
	}
	rp.TimerExpired() // third consecutive silent expiry
	if rp.cpcur != NoCP {
		t.Error("CP still pinned after StaleK silent expiries")
	}
	if rp.StaleRecoveries != 1 {
		t.Errorf("StaleRecoveries = %d, want 1", rp.StaleRecoveries)
	}
	// rcur has doubled to 8000 Mb/s. A 9000 Mb/s CNP from a new CP would
	// normally be ignored (Alg. 2 line 4: higher rate, different CP),
	// but the unpinned state accepts it like an install — one CNP
	// re-homes the flow.
	other := CPKey{Node: 2}
	if !rp.ProcessCNP(900, other) {
		t.Error("higher-rate CNP after staleness not accepted")
	}
	if rp.cpcur != other || rp.RateMbps() != 9000 {
		t.Errorf("re-home failed: cp=%v rate=%v", rp.cpcur, rp.RateMbps())
	}
	// Re-homed: normal acceptance applies again.
	if rp.ProcessCNP(1000, CPKey{Node: 3}) {
		t.Error("higher rate from a third CP accepted after re-homing")
	}
}

// TestAcceptedCNPResetsStaleStreak: the staleness counter only counts
// consecutive silent intervals.
func TestAcceptedCNPResetsStaleStreak(t *testing.T) {
	rp := newStaleRP()
	cp := CPKey{Node: 1}
	rp.ProcessCNP(100, cp)
	rp.TimerExpired()
	rp.TimerExpired()
	rp.ProcessCNP(100, cp) // feedback resumed: streak resets
	rp.TimerExpired()
	rp.TimerExpired()
	if rp.StaleRecoveries != 0 || rp.cpcur != cp {
		t.Errorf("streak not reset by accepted CNP: stale=%d cp=%v",
			rp.StaleRecoveries, rp.cpcur)
	}
	rp.TimerExpired()
	if rp.StaleRecoveries != 1 {
		t.Error("staleness did not fire after streak rebuilt")
	}
}

// TestRejectedCNPDoesNotResetStaleStreak: garbage feedback is not
// feedback — only accepted CNPs prove the control path alive.
func TestRejectedCNPDoesNotResetStaleStreak(t *testing.T) {
	rp := newStaleRP()
	cp := CPKey{Node: 1}
	rp.ProcessCNP(100, cp)
	rp.TimerExpired()
	rp.TimerExpired()
	rp.ProcessCNP(-7, cp) // rejected: must not count as liveness
	rp.TimerExpired()
	if rp.StaleRecoveries != 1 {
		t.Errorf("StaleRecoveries = %d after 3 silent expiries with a rejected CNP in between, want 1", rp.StaleRecoveries)
	}
}

func TestStaleKDisabledByDefault(t *testing.T) {
	for _, k := range []int{0, -1} {
		rp := NewRP(RPConfig{DeltaFMbps: 10, RmaxMbps: 40000, StaleK: k})
		cp := CPKey{Node: 1}
		rp.ProcessCNP(100, cp)
		for i := 0; i < 5; i++ {
			rp.TimerExpired()
		}
		if rp.StaleRecoveries != 0 || rp.cpcur != cp {
			t.Errorf("StaleK=%d: staleness fired despite being disabled", k)
		}
	}
}

// cnpOps encodes a FuzzProcessCNP op stream: one 10-byte record per CNP
// (a selector byte, the rate units, and a CP node) and one zero byte per
// timer expiry.
func cnpOps(ops ...any) []byte {
	var out []byte
	for _, op := range ops {
		switch v := op.(type) {
		case int64:
			out = append(out, 1)
			out = binary.BigEndian.AppendUint64(out, uint64(v))
			out = append(out, byte(len(out)))
		default:
			out = append(out, 0)
		}
	}
	return out
}

// FuzzProcessCNP feeds an RP arbitrary CNPs — any rate units, CP keys
// from a small set — interleaved with fast-recovery expiries. It never
// panics; a CNP that fails validation (out of range, or from a CP the
// witness does not know) leaves the rate and the pinned CP unchanged;
// and the rate stays finite and non-negative.
func FuzzProcessCNP(f *testing.F) {
	f.Add(int64(0), int8(0), false, cnpOps(int64(100), nil, int64(50), nil, nil, nil))
	f.Add(int64(-1), int8(3), true, cnpOps(int64(math.MaxInt64), nil, int64(-5), int64(7), nil, nil, nil, nil, int64(9)))
	f.Add(int64(10), int8(1), false, cnpOps(int64(11), int64(0), nil, nil, int64(1<<30)))
	f.Fuzz(func(t *testing.T, maxUnits int64, staleK int8, witness bool, ops []byte) {
		cfg := RPConfig{DeltaFMbps: 10, RmaxMbps: 40000, MaxRateUnits: int(maxUnits), StaleK: int(staleK)}
		if witness {
			cfg.Witness = func(cp CPKey) bool { return cp.Node != 3 }
		}
		rp := NewRP(cfg)
		for len(ops) > 0 {
			if ops[0]&3 == 0 || len(ops) < 10 {
				rp.TimerExpired()
				ops = ops[1:]
			} else {
				units := int(int64(binary.BigEndian.Uint64(ops[1:])))
				cp := CPKey{Node: int64(ops[9] % 4), Port: int(ops[9] / 4 % 2)}
				ops = ops[10:]
				rate, pinned, rejected := rp.RateMbps(), rp.cpcur, rp.CNPsRejected
				accepted := rp.ProcessCNP(units, cp)
				invalid := units < 0 || rp.cfg.maxRateUnits() > 0 && units > rp.cfg.maxRateUnits() ||
					witness && cp.Node == 3
				if invalid && rp.CNPsRejected == rejected {
					t.Fatalf("CNP %d from %v passed validation (bound %d)", units, cp, rp.cfg.maxRateUnits())
				}
				if rp.CNPsRejected != rejected && (accepted || rp.RateMbps() != rate || rp.cpcur != pinned) {
					t.Fatalf("rejected CNP %d from %v moved the RP: rate %v -> %v, CP %v -> %v",
						units, cp, rate, rp.RateMbps(), pinned, rp.cpcur)
				}
			}
			if r := rp.RateMbps(); !(r >= 0) || math.IsInf(r, 0) {
				t.Fatalf("rate %v after op", r)
			}
		}
	})
}
