package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of one sample should be 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(got, 2.138, 0.001) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
}

func TestPercentileEdges(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 3 {
		t.Errorf("p100 = %v, want 3", got)
	}
	if got := Percentile(xs, 50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of single = %v, want 7", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); got != 15 {
		t.Errorf("p50 of {10,20} = %v, want 15", got)
	}
	if got := Percentile(xs, 25); got != 12.5 {
		t.Errorf("p25 = %v, want 12.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

// Property: percentiles are within [min, max] and monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		v1, v2 := Percentile(raw, p1), Percentile(raw, p2)
		return v1 >= sorted[0] && v2 <= sorted[len(sorted)-1] && v1 <= v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if Summarize(nil).Count != 0 {
		t.Error("Summarize(nil).Count != 0")
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of one sample should be 0")
	}
	// n=5 (the paper's repetition count): the interval must use the
	// Student-t critical value t(0.975, 4) = 2.776. StdDev of these
	// samples is sqrt(1.3), so the exact expected half-width is
	// 2.776 * sqrt(1.3) / sqrt(5) = 1.41549... — the pre-fix z=1.96
	// value (0.99938...) is ~30% too narrow and must NOT be returned.
	xs := []float64{10, 12, 9, 11, 10}
	want := 2.776 * math.Sqrt(1.3) / math.Sqrt(5)
	got := CI95(xs)
	if !almost(got, want, 1e-12) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
	if !almost(got, 1.4154878, 1e-6) {
		t.Errorf("CI95 = %v, want 1.4154878 exactly", got)
	}
	zBased := 1.96 * StdDev(xs) / math.Sqrt(5)
	if almost(got, zBased, 1e-6) {
		t.Errorf("CI95 still uses the normal z=1.96 on n=5 (%v)", got)
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 0}, // no interval defined
		{2, 12.706}, {3, 4.303}, {5, 2.776}, {10, 2.262}, {31, 2.042},
		{41, 2.021}, {61, 2.000}, {121, 1.980}, {1000, 1.96},
	}
	for _, c := range cases {
		if got := TCrit95(c.n); got != c.want {
			t.Errorf("TCrit95(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Monotone non-increasing in n: more samples never widen the factor.
	prev := math.Inf(1)
	for n := 2; n <= 200; n++ {
		v := TCrit95(n)
		if v > prev {
			t.Fatalf("TCrit95(%d) = %v > TCrit95(%d) = %v", n, v, n-1, prev)
		}
		prev = v
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0.001, 10)
	s.Add(0.002, 20)
	s.Add(0.003, 30)
	if len(s.Points) != 3 || s.Points[2] != (Point{T: 0.003, V: 30}) {
		t.Errorf("Points = %v", s.Points)
	}
	if got := s.MeanAfter(0.002); got != 25 {
		t.Errorf("MeanAfter = %v, want 25", got)
	}
	if got := s.MeanAfter(1); got != 0 {
		t.Errorf("MeanAfter past end = %v, want 0", got)
	}
	if got := s.StdDevAfter(0.002); !almost(got, StdDev([]float64{20, 30}), 1e-12) {
		t.Errorf("StdDevAfter = %v", got)
	}
}

func TestFCTRecorder(t *testing.T) {
	var r FCTRecorder
	r.Record(1000, 0.001) // 8 Mb/s
	r.Record(1000, 0)     // zero-duration guard
	if r.Samples[0].Rate != 8e6 {
		t.Errorf("rate = %v, want 8e6", r.Samples[0].Rate)
	}
	if r.Samples[1].Rate != 0 {
		t.Errorf("zero-duration rate = %v, want 0", r.Samples[1].Rate)
	}
}

func TestBinBySize(t *testing.T) {
	var r FCTRecorder
	r.Record(100, 0.001)
	r.Record(1000, 0.002)
	r.Record(1500, 0.004)
	r.Record(99999, 0.010) // beyond last edge -> last bin
	bins := r.BinBySize([]int{100, 1000, 2000})
	if bins[0].Count != 1 || bins[0].AvgMs != 1 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if bins[1].Count != 1 || bins[1].AvgMs != 2 {
		t.Errorf("bin1 = %+v", bins[1])
	}
	if bins[2].Count != 2 {
		t.Errorf("bin2 count = %d, want 2 (1500 and the overflow)", bins[2].Count)
	}
	if bins[2].AvgMs != 7 {
		t.Errorf("bin2 avg = %v, want 7", bins[2].AvgMs)
	}
}

func TestRateStats(t *testing.T) {
	var r FCTRecorder
	r.Record(125000, 1.0) // 1 Mb/s
	r.Record(250000, 1.0) // 2 Mb/s
	mean, std := r.RateStats()
	if !almost(mean, 1.5, 1e-9) {
		t.Errorf("mean = %v, want 1.5", mean)
	}
	if !almost(std, StdDev([]float64{1, 2}), 1e-9) {
		t.Errorf("std = %v", std)
	}
}

// Property: every sample lands in exactly one bin, and bin counts sum to
// the sample count.
func TestBinningPartitionProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		var r FCTRecorder
		for _, s := range sizes {
			r.Record(int(s%200000), 0.001)
		}
		bins := r.BinBySize([]int{1000, 10000, 100000})
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		return total == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almost(got, 1, 1e-12) {
		t.Errorf("even allocation index = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almost(got, 0.25, 1e-12) {
		t.Errorf("max-unfair index = %v, want 1/n", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	mixed := JainIndex([]float64{4, 2})
	if mixed <= 0.25 || mixed >= 1 {
		t.Errorf("mixed index = %v out of range", mixed)
	}
}
