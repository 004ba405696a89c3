// Package control reproduces the §5 stability analysis of the RoCC PI
// controller. The open-loop transfer function derived in the paper is
//
//	G(s) = K · (1 + s/z1) / s² · e^(−sT)
//
// with K = κNα/T, z1 = α/((β+α/2)·T), and κ = ΔF/ΔQ (converted to
// bytes/s per rate unit over bytes per queue unit). Phase margins and
// gain-crossover (loop bandwidth) values regenerate Figs. 5, 6, 7a, 7b,
// and the auto-tune mapping of §5.3.
package control

import "math"

// DefaultKappa is κ for the paper's quantization: ΔF = 10 Mb/s expressed
// in bytes/s, over ΔQ = 600 B. Units: 1/s.
const DefaultKappa = 10e6 / 8 / 600

// System is the linearized RoCC control loop for one congestion point.
type System struct {
	Alpha float64 // PI proportional gain α (per update, in quantized units)
	Beta  float64 // PI derivative gain β
	N     float64 // number of flows sharing the link
	T     float64 // update interval in seconds (40 µs in §6)
	Kappa float64 // κ = ΔF/ΔQ in 1/s; zero selects DefaultKappa
}

func (s System) kappa() float64 {
	if s.Kappa > 0 {
		return s.Kappa
	}
	return DefaultKappa
}

// K returns the open-loop gain K = κNα/T.
func (s System) K() float64 { return s.kappa() * s.N * s.Alpha / s.T }

// Z1 returns the controller zero z1 = α/((β+α/2)T) in rad/s.
func (s System) Z1() float64 { return s.Alpha / ((s.Beta + float64(s.Alpha/2)) * s.T) }

// GainAt returns |G(jω)| at angular frequency w (rad/s).
func (s System) GainAt(w float64) float64 {
	z1 := s.Z1()
	return s.K() * math.Sqrt(1+float64((w/z1)*(w/z1))) / (w * w)
}

// PhaseAt returns the phase of G(jω) in degrees: the zero contributes
// +atan(ω/z1), the double integrator −180°, and the loop delay −ωT.
func (s System) PhaseAt(w float64) float64 {
	z1 := s.Z1()
	return math.Atan(w/z1)*180/math.Pi - 180 - w*s.T*180/math.Pi
}

// Crossover returns the gain-crossover frequency ω_c (rad/s) where
// |G(jω)| = 1. |G| is strictly decreasing in ω, so bisection applies.
func (s System) Crossover() float64 {
	lo, hi := 1e-3, 1e12
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection on log scale
		if s.GainAt(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// PhaseMarginDeg returns the phase margin in degrees: 180° + ∠G(jω_c).
// Positive margins mean the closed loop is stable.
func (s System) PhaseMarginDeg() float64 {
	return 180 + s.PhaseAt(s.Crossover())
}

// LoopBandwidthHz returns the gain-crossover frequency in Hz — the
// paper's "loop bandwidth", a proxy for response speed (Fig. 7b).
func (s System) LoopBandwidthHz() float64 {
	return s.Crossover() / (2 * math.Pi)
}

// AutoTuneGains applies the Alg. 1 quantized auto-tuning to the static
// gains for an equilibrium fair rate of fmaxUnits/n (i.e. n equal flows):
// the level doubles while F < Fmax/level, capped at maxLevel, and both
// gains are divided by level/2. It returns the effective gains and level.
func AutoTuneGains(alphaTilde, betaTilde float64, n float64, maxLevel int) (alpha, beta float64, level int) {
	level = 2
	for n > float64(level) && level < maxLevel {
		level *= 2
	}
	ratio := float64(level / 2)
	return alphaTilde / ratio, betaTilde / ratio, level
}

// GainPair is one α:β point of Figs. 7a/7b.
type GainPair struct {
	Alpha, Beta float64
}

// PaperGainPairs returns the six α:β pairs of Fig. 7: starting at 0.3:3
// and halving both values five times.
func PaperGainPairs() []GainPair {
	pairs := make([]GainPair, 6)
	a, b := 0.3, 3.0
	for i := range pairs {
		pairs[i] = GainPair{Alpha: a, Beta: b}
		a /= 2
		b /= 2
	}
	return pairs
}
