package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram layout: HDR-style base-2 log bucketing with 2^subBits linear
// sub-buckets per octave. Values below 2^subBits are recorded exactly;
// above that the relative quantization error is bounded by 2^-subBits
// (~3.1% at subBits=5), which is ample for latency/queue-depth
// percentiles while keeping the bucket array small enough (15 KB) to
// embed one histogram per metric.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// Histogram records non-negative int64 observations into log-spaced
// buckets with a lock-free Observe, reporting count/min/max/mean and
// p50/p95/p99 in snapshots. A nil Histogram ignores all observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(^uint64(0))
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1 // e >= subBits
	s := (v >> (e - subBits)) - subBuckets
	return (e-subBits+1)*subBuckets + int(s)
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	e := i/subBuckets + subBits - 1
	s := i % subBuckets
	return (uint64(subBuckets) + uint64(s)) << (e - subBits)
}

// Observe records one value. Negative values clamp to zero. The
// operation is a handful of atomic adds and two bounded CAS loops —
// no locks, no allocation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	u := uint64(0)
	if v > 0 {
		u = uint64(v)
	}
	h.count.Add(1)
	h.sum.Add(u)
	h.buckets[bucketIndex(u)].Add(1)
	for {
		cur := h.min.Load()
		if u >= cur || h.min.CompareAndSwap(cur, u) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
	Mean  float64
	P50   uint64
	P95   uint64
	P99   uint64
}

// Snapshot summarizes the histogram. Concurrent Observe calls may land
// between the count read and the bucket scan; percentiles are therefore
// approximate under write load, exact once writers quiesce.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.P50 = h.quantile(0.50, s.Count, s.Max)
	s.P95 = h.quantile(0.95, s.Count, s.Max)
	s.P99 = h.quantile(0.99, s.Count, s.Max)
	return s
}

func (h *Histogram) quantile(q float64, total, max uint64) uint64 {
	target := uint64(float64(q*float64(total)) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			// Representative value: the bucket midpoint, clamped to the
			// observed maximum so p99 never exceeds max.
			low := bucketLow(i)
			var high uint64
			if i+1 < numBuckets {
				high = bucketLow(i+1) - 1
			} else {
				high = ^uint64(0)
			}
			v := low + (high-low)/2
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}
