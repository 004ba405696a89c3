package stats

import "math"

// Point is one sample of a time series: a timestamp in seconds and a value.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series used to record queue sizes, fair
// rates and per-flow throughputs over a run.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// MeanAfter returns the mean of all samples with T >= t0. It is used to
// measure steady-state values while skipping the transient.
func (s *Series) MeanAfter(t0 float64) float64 { return s.MeanIn(t0, math.Inf(1)) }

// MeanIn returns the mean of the samples with t0 <= T < t1, or 0 when
// none.
func (s *Series) MeanIn(t0, t1 float64) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.T >= t0 && p.T < t1 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// StdDevAfter returns the sample standard deviation of samples with T >= t0.
func (s *Series) StdDevAfter(t0 float64) float64 {
	var vals []float64
	for _, p := range s.Points {
		if p.T >= t0 {
			vals = append(vals, p.V)
		}
	}
	return StdDev(vals)
}
