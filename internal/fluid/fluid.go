// Package fluid integrates the paper's §5.1 fluid model of the RoCC
// control loop — the delay-differential system
//
//	dQ/dt = (ΔF·N·F(t−T) − C) / ΔQ        (Eq. 2)
//	F updated every T by Alg. 1            (discrete controller)
//
// against the *actual* controller implementation in internal/core. It
// serves two purposes:
//
//   - Cross-validation: the packet simulator and the fluid model must
//     agree on equilibrium (Eq. 1: F* = (C − BW_mice)/N) and on
//     qualitative transient behaviour; tests in this package and in
//     internal/roccnet assert both.
//   - Fast exploration: a fluid run is O(duration/T) instead of
//     O(packets), so stability can be swept over hundreds of (N, gain)
//     points in milliseconds, mirroring the paper's §5 analysis with the
//     real quantized controller rather than its linearization.
package fluid

import (
	"math"

	"rocc/internal/core"
)

// Config describes one fluid scenario.
type Config struct {
	CP       core.CPConfig
	N        int     // flows tracking the fair rate
	LinkMbps float64 // bottleneck capacity C
	MiceMbps float64 // innocent traffic not tracking the fair rate (Eq. 1)
	T        float64 // update interval in seconds (40 µs in §6)

	// FeedbackDelay is the extra loop delay before a computed rate takes
	// effect at the sources (RTT + NIC reaction), in seconds.
	FeedbackDelay float64

	// Steps is the number of controller updates to simulate.
	Steps int
}

// Result is the trajectory of one fluid run.
type Result struct {
	QueueBytes []float64 // queue at each update instant
	RateMbps   []float64 // fair rate after each update
	Equilibr   float64   // Eq. 1 prediction: (C - mice)/N
}

// FinalRate returns the last computed fair rate.
func (r Result) FinalRate() float64 { return r.RateMbps[len(r.RateMbps)-1] }

// Converged reports whether the trailing fraction of the run stays
// within tol (fractional) of the Eq. 1 equilibrium.
func (r Result) Converged(tol float64) bool {
	if r.Equilibr <= 0 {
		return false
	}
	tail := len(r.RateMbps) / 4
	for _, v := range r.RateMbps[len(r.RateMbps)-tail:] {
		if math.Abs(v-r.Equilibr)/r.Equilibr > tol {
			return false
		}
	}
	return true
}

// Run integrates the loop. Sources start unthrottled (rate limiters
// uninstalled), as in the paper's experiments, so the initial transient
// includes the MD phase.
func Run(cfg Config) Result {
	if cfg.Steps <= 0 {
		cfg.Steps = 2000
	}
	if cfg.T <= 0 {
		cfg.T = 40e-6
	}
	cp := core.NewCP(cfg.CP)
	res := Result{
		Equilibr: (cfg.LinkMbps - cfg.MiceMbps) / float64(cfg.N),
	}

	// The rate pipeline models the feedback delay as a whole number of
	// update intervals (at least one: rates computed now apply next T).
	delaySlots := 1 + int(cfg.FeedbackDelay/cfg.T)
	pipe := make([]float64, delaySlots)
	for i := range pipe {
		pipe[i] = cfg.CP.FmaxMbps // unthrottled start
	}

	q := 0.0
	sub := 20 // queue integration sub-steps per controller interval
	dt := cfg.T / float64(sub)
	for step := 0; step < cfg.Steps; step++ {
		applied := pipe[0]
		copy(pipe, pipe[1:])

		// Integrate Eq. 2 over one interval with the applied rate.
		input := math.Min(applied*float64(cfg.N), cfg.CP.FmaxMbps*float64(cfg.N)) + cfg.MiceMbps
		for i := 0; i < sub; i++ {
			q += float64((input - cfg.LinkMbps) * 1e6 / 8 * dt)
			if q < 0 {
				q = 0
			}
		}
		units := cp.Update(int(q))
		pipe[delaySlots-1] = float64(units) * cfg.CP.DeltaFMbps
		res.QueueBytes = append(res.QueueBytes, q)
		res.RateMbps = append(res.RateMbps, cp.FairRateMbps())
	}
	return res
}
