// Package workload generates the paper's traffic: heavy-tailed flow-size
// distributions shaped after the public WebSearch [2, 28] and FB_Hadoop
// [28, 35] traces, open-loop Poisson flow arrivals at a target average
// link load, and the incast/permutation patterns of §6.
//
// The CDFs are synthetic stand-ins for the original traces (which are not
// redistributable): their support points are exactly the size bins the
// paper's Figs. 14-16 report, so per-bin FCT comparisons line up, and
// their tails carry the same elephant/mice character the evaluation
// depends on.
package workload

import (
	"fmt"
	"sort"

	"rocc/internal/sim"
)

// CDFPoint is one support point of a flow-size CDF.
type CDFPoint struct {
	Bytes int
	Prob  float64 // cumulative probability at Bytes
}

// CDF is a piecewise-linear flow-size distribution sampled by inverse
// transform.
type CDF struct {
	name   string
	points []CDFPoint
	mean   float64
}

// NewCDF builds a CDF from support points. Sizes must be positive,
// probabilities in [0, 1], both strictly increasing, and the last
// probability 1.
func NewCDF(name string, points []CDFPoint) *CDF {
	if len(points) < 2 {
		panic("workload: CDF needs at least two points")
	}
	for i, p := range points {
		if p.Bytes <= 0 || !(p.Prob >= 0 && p.Prob <= 1) { // NaN fails both
			panic(fmt.Sprintf("workload: CDF %q point %d out of range: %d bytes at probability %g", name, i, p.Bytes, p.Prob))
		}
		if i > 0 && (p.Bytes <= points[i-1].Bytes || p.Prob <= points[i-1].Prob) {
			panic(fmt.Sprintf("workload: CDF %q not strictly increasing at %d", name, i))
		}
	}
	if points[len(points)-1].Prob != 1 {
		panic("workload: CDF must end at probability 1")
	}
	c := &CDF{name: name, points: points}
	c.mean = c.computeMean()
	return c
}

// Name returns the distribution name.
func (c *CDF) Name() string { return c.name }

// MeanBytes returns the distribution's mean flow size.
func (c *CDF) MeanBytes() float64 { return c.mean }

func (c *CDF) computeMean() float64 {
	// Mass at/below the first point: treat as uniform (0, first].
	mean := c.points[0].Prob * float64(c.points[0].Bytes) / 2
	prev := c.points[0]
	for _, p := range c.points[1:] {
		w := p.Prob - prev.Prob
		mean += w * (float64(prev.Bytes) + float64(p.Bytes)) / 2
		prev = p
	}
	return mean
}

// Sample draws a flow size by inverse transform with linear interpolation.
// The result is at least 1 byte.
func (c *CDF) Sample(r *sim.Rand) int {
	u := r.Float64()
	return c.Quantile(u)
}

// Quantile returns the flow size at cumulative probability u in [0, 1):
// at least 1 byte and at most the last support size.
func (c *CDF) Quantile(u float64) int {
	idx := sort.Search(len(c.points), func(i int) bool { return c.points[i].Prob >= u })
	if idx >= len(c.points) {
		return c.points[len(c.points)-1].Bytes
	}
	lo, hi := CDFPoint{}, c.points[idx] // below the first point: (0, first]
	if idx > 0 {
		lo = c.points[idx-1]
	}
	if hi.Prob == lo.Prob { // u = 0 on a CDF that starts at probability 0
		return hi.Bytes
	}
	span := hi.Bytes - lo.Bytes
	d := (u - lo.Prob) / (hi.Prob - lo.Prob) * float64(span)
	if d >= float64(span) { // also where float64(span) rounds up
		return hi.Bytes
	}
	return max(1, lo.Bytes+int(d))
}

// Bins returns the support sizes, which Figs. 14-16 use as FCT bins.
func (c *CDF) Bins() []int {
	bins := make([]int, len(c.points))
	for i, p := range c.points {
		bins[i] = p.Bytes
	}
	return bins
}

// WebSearch returns the throughput-heavy WebSearch-style distribution.
// Its support matches the paper's WebSearch bins: 10K...80K (mice) and
// 200K...10M (elephants).
func WebSearch() *CDF {
	return NewCDF("WebSearch", []CDFPoint{
		{10 * 1000, 0.15},
		{20 * 1000, 0.20},
		{30 * 1000, 0.30},
		{50 * 1000, 0.40},
		{80 * 1000, 0.53},
		{200 * 1000, 0.60},
		{1000 * 1000, 0.70},
		{2000 * 1000, 0.80},
		{5000 * 1000, 0.90},
		{10000 * 1000, 1.00},
	})
}

// FBHadoop returns the latency-sensitive small-flow distribution. Its
// support matches the paper's FB_Hadoop bins: 75B...10K (mice) and
// 16K...100K (tail).
func FBHadoop() *CDF {
	return NewCDF("FB_Hadoop", []CDFPoint{
		{75, 0.10},
		{1000, 0.32},
		{2500, 0.50},
		{6300, 0.66},
		{10 * 1000, 0.76},
		{16 * 1000, 0.83},
		{23 * 1000, 0.87},
		{24 * 1000, 0.90},
		{25 * 1000, 0.93},
		{100 * 1000, 1.00},
	})
}

// ByName resolves a distribution by its paper name.
func ByName(name string) (*CDF, error) {
	switch name {
	case "WebSearch", "websearch":
		return WebSearch(), nil
	case "FB_Hadoop", "fbhadoop", "fb_hadoop":
		return FBHadoop(), nil
	}
	return nil, fmt.Errorf("workload: unknown distribution %q", name)
}
