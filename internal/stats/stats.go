// Package stats provides the small statistical toolkit the evaluation
// harness needs: percentiles, summary statistics, 95% confidence intervals
// across repeated runs, time-series recording, and per-bin aggregation of
// flow completion times.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when fewer than two samples are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Summary bundles the statistics the paper reports for a sample set.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	P50    float64
	P90    float64
	P99    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs. xs is not modified.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		Count:  len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		P50:    percentileSorted(sorted, 50),
		P90:    percentileSorted(sorted, 90),
		P99:    percentileSorted(sorted, 99),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
	}
}

// tCrit95 holds the two-sided Student-t critical values t(0.975, df)
// for df = 1..30. Beyond the table, TCrit95 steps through the standard
// df = 40/60/120 values and then the normal limit.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for a
// sample of n observations (df = n-1), falling back to the normal
// z = 1.96 for large n. It returns 0 for n < 2, where no interval is
// defined.
func TCrit95(n int) float64 {
	df := n - 1
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.96
	}
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// of xs. The paper reports averages of 5 repetitions with 95% confidence
// intervals; at such small n the interval must use the Student-t critical
// value (t(0.975, 4) = 2.776 for n = 5), not the normal z = 1.96, which
// undercovers by ~30%. TCrit95 converges to 1.96 for large samples.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return TCrit95(len(xs)) * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²): 1.0 for a
// perfectly even allocation, 1/n when one member takes everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
