package fluid

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rocc/internal/core"
)

func base(n int) Config {
	return Config{
		CP:       core.CPConfig40G(),
		N:        n,
		LinkMbps: 40000,
		T:        40e-6,
		Steps:    4000,
	}
}

func TestEquilibriumMatchesEq1(t *testing.T) {
	for _, n := range []int{2, 4, 10, 50, 100} {
		r := Run(base(n))
		want := 40000.0 / float64(n)
		if math.Abs(r.FinalRate()-want)/want > 0.1 {
			t.Errorf("N=%d: F = %.1f, want ~%.1f", n, r.FinalRate(), want)
		}
		if !r.Converged(0.15) {
			t.Errorf("N=%d: did not converge", n)
		}
	}
}

func TestQueueSettlesAtQref(t *testing.T) {
	r := Run(base(10))
	q, qref := r.QueueBytes[len(r.QueueBytes)-1], float64(core.CPConfig40G().QrefBytes)
	if math.Abs(q-qref)/qref > 0.2 {
		t.Errorf("queue = %.0f, want ~%.0f", q, qref)
	}
}

func TestMiceTrafficReducesFairShare(t *testing.T) {
	// Eq. 1: innocent traffic shrinks the pool the tracked flows share.
	cfg := base(10)
	cfg.MiceMbps = 10000
	r := Run(cfg)
	want := (40000.0 - 10000) / 10
	if math.Abs(r.FinalRate()-want)/want > 0.15 {
		t.Errorf("F with mice = %.1f, want ~%.1f", r.FinalRate(), want)
	}
}

func TestUnthrottledStartTriggersMDOvershoot(t *testing.T) {
	r := Run(base(10))
	// 10 unthrottled flows blast the queue well past Qmax before the
	// first cut takes effect.
	if peak := slices.Max(r.QueueBytes); peak < float64(core.CPConfig40G().QmaxBytes) {
		t.Errorf("overshoot %.0f below Qmax; MD path untested", peak)
	}
}

func TestLongerFeedbackDelayWorsensOvershoot(t *testing.T) {
	short := base(10)
	long := base(10)
	long.FeedbackDelay = 10 * 40e-6
	a, b := Run(short), Run(long)
	if pa, pb := slices.Max(a.QueueBytes), slices.Max(b.QueueBytes); pb <= pa {
		t.Errorf("delay did not worsen overshoot: %.0f vs %.0f", pa, pb)
	}
}

func TestAutoTuneExtendsStableRange(t *testing.T) {
	// With auto-tune on, the loop converges across the full N range; a
	// pinned aggressive gain destabilizes (or at least fails) large N.
	tuned := base(2)
	if got := maxStableN(tuned, 128, 0.15); got < 128 {
		t.Errorf("auto-tuned loop stable only to N=%d", got)
	}
	pinned := base(2)
	pinned.CP.DisableAutoTune = true
	pinned.CP.AlphaTilde = 0.3
	pinned.CP.BetaTilde = 3
	if got := maxStableN(pinned, 128, 0.15); got >= 128 {
		t.Errorf("pinned aggressive gains reported stable to N=%d; expected failure at large N", got)
	}
}

func TestHundredGbpsProfile(t *testing.T) {
	cfg := Config{
		CP:       core.CPConfig100G(),
		N:        10,
		LinkMbps: 100000,
		T:        40e-6,
		Steps:    4000,
	}
	r := Run(cfg)
	if math.Abs(r.FinalRate()-10000)/10000 > 0.1 {
		t.Errorf("100G F = %.1f, want ~10000", r.FinalRate())
	}
}

// Property: across random N and mice share, the fluid loop converges to
// Eq. 1 with the paper's 40G parameters.
func TestEq1FixedPointProperty(t *testing.T) {
	f := func(nRaw, miceRaw uint8) bool {
		n := int(nRaw%100) + 2
		mice := float64(miceRaw%64) * 300 // up to ~19.2G of innocent load
		cfg := base(n)
		cfg.MiceMbps = mice
		cfg.Steps = 6000
		r := Run(cfg)
		want := (40000 - mice) / float64(n)
		return math.Abs(r.FinalRate()-want)/want < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDefaults(t *testing.T) {
	cfg := base(4)
	cfg.Steps = 0
	cfg.T = 0
	r := Run(cfg)
	if len(r.RateMbps) != 2000 {
		t.Errorf("default steps = %d", len(r.RateMbps))
	}
}

// maxStableN runs the fluid loop over N = 2, 4, ... maxN and returns the
// largest N for which it converges within tol: the §5 stability question
// answered with the real quantized controller.
func maxStableN(cfg Config, maxN int, tol float64) int {
	stable := 0
	for n := 2; n <= maxN; n *= 2 {
		c := cfg
		c.N = n
		if Run(c).Converged(tol) {
			stable = n
		}
	}
	return stable
}
