package sim

import "math/rand"

// Rand wraps a seeded pseudo-random source with the distributions the
// simulator needs. Every run is reproducible given its seed.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// ExpTime returns an exponentially distributed duration with the given mean.
func (r *Rand) ExpTime(mean Time) Time {
	return Time(r.r.ExpFloat64() * float64(mean))
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }

// Split derives an independent generator, so that subsystems do not perturb
// each other's random streams when one of them draws more values.
func (r *Rand) Split() *Rand { return NewRand(r.r.Int63()) }
