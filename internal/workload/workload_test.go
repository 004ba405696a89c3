package workload

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rocc/internal/harness"
	"rocc/internal/sim"
)

func TestCDFValidation(t *testing.T) {
	mustPanic := func(name string, points []CDFPoint) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: invalid CDF accepted", name)
			}
		}()
		NewCDF(name, points)
	}
	mustPanic("too-few", []CDFPoint{{100, 1}})
	mustPanic("non-monotone-size", []CDFPoint{{100, 0.5}, {100, 1}})
	mustPanic("non-monotone-prob", []CDFPoint{{100, 0.5}, {200, 0.5}})
	mustPanic("not-ending-at-1", []CDFPoint{{100, 0.5}, {200, 0.9}})
	mustPanic("nan-prob", []CDFPoint{{100, math.NaN()}, {200, 1}})
	mustPanic("negative-prob", []CDFPoint{{100, -0.5}, {200, 1}})
	mustPanic("zero-bytes", []CDFPoint{{0, 0.5}, {200, 1}})
	mustPanic("negative-bytes", []CDFPoint{{-100, 0.5}, {200, 1}})
}

// cdfBytes encodes points as FuzzCDF reads them: 16 bytes each, the size
// as a big-endian int64, then the probability's float64 bits.
func cdfBytes(points ...CDFPoint) []byte {
	var out []byte
	for _, p := range points {
		out = binary.BigEndian.AppendUint64(out, uint64(p.Bytes))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(p.Prob))
	}
	return out
}

// FuzzCDF: any point list either makes NewCDF panic with a workload:
// message, or yields a CDF whose mean is finite and positive and whose
// Quantile is monotone in u and within [1, last size] on [0, 1).
func FuzzCDF(f *testing.F) {
	for _, seed := range [][]CDFPoint{
		{{100, 0}, {200, 1}}, // Quantile(0) divided by the first probability
		WebSearch().points, FBHadoop().points,
		{{1, 0.5}, {math.MaxInt, 1}},
		{{math.MaxInt - 1, 0}, {math.MaxInt, 1}},
		{{100, math.NaN()}, {200, 1}},
		{{100, 0.5}, {100, 1}},
	} {
		f.Add(cdfBytes(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var points []CDFPoint
		for ; len(data) >= 16; data = data[16:] {
			points = append(points, CDFPoint{
				Bytes: int(binary.BigEndian.Uint64(data)),
				Prob:  math.Float64frombits(binary.BigEndian.Uint64(data[8:])),
			})
		}
		c := func() (c *CDF) {
			defer func() {
				if r := recover(); r != nil {
					if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "workload:") {
						t.Fatalf("%v: NewCDF panicked with %v", points, r)
					}
				}
			}()
			return NewCDF("fuzz", points)
		}()
		if c == nil {
			return
		}
		if m := c.MeanBytes(); !(m > 0) || math.IsInf(m, 0) {
			t.Errorf("%v: MeanBytes = %v", points, m)
		}
		us := []float64{0}
		for k := 1; k < 1024; k++ {
			us = append(us, float64(k)/1024)
		}
		for _, p := range points {
			us = append(us, p.Prob, math.Nextafter(p.Prob, 0), math.Nextafter(p.Prob, 1))
		}
		slices.Sort(us)
		last, prev := points[len(points)-1].Bytes, 1
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			q := c.Quantile(u)
			if q < prev || q > last {
				t.Fatalf("%v: Quantile(%v) = %d, want within [%d, %d]", points, u, q, prev, last)
			}
			prev = q
		}
	})
}

func TestPaperBins(t *testing.T) {
	ws := WebSearch()
	wantWS := []int{10000, 20000, 30000, 50000, 80000, 200000, 1000000, 2000000, 5000000, 10000000}
	for i, b := range ws.Bins() {
		if b != wantWS[i] {
			t.Errorf("WebSearch bin %d = %d, want %d", i, b, wantWS[i])
		}
	}
	fb := FBHadoop()
	wantFB := []int{75, 1000, 2500, 6300, 10000, 16000, 23000, 24000, 25000, 100000}
	for i, b := range fb.Bins() {
		if b != wantFB[i] {
			t.Errorf("FB_Hadoop bin %d = %d, want %d", i, b, wantFB[i])
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	c := WebSearch()
	prev := 0
	for u := 0.0; u < 1; u += 0.01 {
		q := c.Quantile(u)
		if q < prev {
			t.Fatalf("quantile not monotone at u=%.2f: %d < %d", u, q, prev)
		}
		prev = q
	}
}

func TestQuantileEndpoints(t *testing.T) {
	c := FBHadoop()
	if q := c.Quantile(0); q < 1 {
		t.Errorf("Quantile(0) = %d, want >= 1", q)
	}
	if q := c.Quantile(0.9999999); q > 100000 {
		t.Errorf("Quantile(~1) = %d, exceeds max", q)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	r := sim.NewRand(1)
	c := WebSearch()
	for i := 0; i < 10000; i++ {
		s := c.Sample(r)
		if s < 1 || s > 10000000 {
			t.Fatalf("sample %d out of support", s)
		}
	}
}

func TestEmpiricalMeanMatchesAnalytic(t *testing.T) {
	r := sim.NewRand(2)
	for _, c := range []*CDF{WebSearch(), FBHadoop()} {
		var sum float64
		n := 200000
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(r))
		}
		emp := sum / float64(n)
		if math.Abs(emp-c.MeanBytes())/c.MeanBytes() > 0.05 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f", c.Name(), emp, c.MeanBytes())
		}
	}
}

func TestHeavyTail(t *testing.T) {
	// WebSearch is elephant-dominated: the top 10% of flows by size must
	// carry well over half the bytes.
	c := WebSearch()
	r := sim.NewRand(3)
	var total, big float64
	p90 := float64(c.Quantile(0.9))
	for i := 0; i < 100000; i++ {
		s := float64(c.Sample(r))
		total += s
		if s >= p90 {
			big += s
		}
	}
	if big/total < 0.5 {
		t.Errorf("top decile carries %.0f%% of bytes, want > 50%%", big/total*100)
	}
}

func TestArrivalRate(t *testing.T) {
	c := NewCDF("unit", []CDFPoint{{999, 0.001}, {1000, 1.0}}) // ~1000B flows
	lam := ArrivalRate(c, 8e9, 0.5)                            // 4 Gb/s of ~8000-bit flows
	want := 0.5 * 8e9 / (c.MeanBytes() * 8)
	if math.Abs(lam-want) > 1e-6 {
		t.Errorf("ArrivalRate = %v, want %v", lam, want)
	}
}

func TestPoissonArrivalCount(t *testing.T) {
	engine := sim.New()
	r := sim.NewRand(4)
	count := 0
	gen := NewPoisson(engine, r, FBHadoop(), 10000, func(size int) {
		count++
		if size < 1 {
			t.Fatal("non-positive flow size")
		}
	})
	engine.RunUntil(sim.Second)
	gen.Stop()
	// 10k flows/s over 1s: Poisson(10000); 5 sigma = 500.
	if count < 9500 || count > 10500 {
		t.Errorf("arrivals = %d, want ~10000", count)
	}
	if gen.Started != count {
		t.Errorf("Started = %d, callbacks = %d", gen.Started, count)
	}
}

func TestPoissonStop(t *testing.T) {
	engine := sim.New()
	gen := NewPoisson(engine, sim.NewRand(5), FBHadoop(), 1e6, func(int) {})
	engine.RunUntil(sim.Millisecond)
	gen.Stop()
	at := gen.Started
	engine.RunUntil(10 * sim.Millisecond)
	if gen.Started != at {
		t.Error("arrivals continued after Stop")
	}
}

func TestPoissonRejectsZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero arrival rate accepted")
		}
	}()
	NewPoisson(sim.New(), sim.NewRand(1), FBHadoop(), 0, func(int) {})
}

// Property: quantile inverts sampling — a sample at u is within the bin
// that contains u.
func TestQuantileWithinBracketProperty(t *testing.T) {
	c := WebSearch()
	f := func(uRaw uint32) bool {
		u := float64(uRaw) / float64(math.MaxUint32)
		if u >= 1 {
			return true
		}
		q := c.Quantile(u)
		return q >= 1 && q <= 10000000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Boundary cases the interpolation must pin down exactly: an empty
// point list, a single-point CDF (no segment to interpolate on), and
// evaluation at exactly a knot's cumulative probability.
func TestCDFEmptyRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty CDF accepted")
		}
	}()
	NewCDF("empty", nil)
}

func TestCDFSinglePointRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-point CDF accepted")
		}
	}()
	NewCDF("single", []CDFPoint{{1000, 1}})
}

func TestQuantileExactAtKnots(t *testing.T) {
	// At u equal to a knot's cumulative probability the interpolation
	// fraction is exactly 1, so the knot's own size must come back — no
	// off-by-one from landing on the segment boundary.
	for _, c := range []*CDF{WebSearch(), FBHadoop()} {
		for i, p := range c.points {
			if got := c.Quantile(p.Prob); got != p.Bytes {
				t.Errorf("%s knot %d: Quantile(%g) = %d, want %d",
					c.Name(), i, p.Prob, got, p.Bytes)
			}
		}
	}
}

func TestQuantileAtOne(t *testing.T) {
	// u = 1.0 is the last knot exactly; anything above it clamps there.
	c := WebSearch()
	last := c.points[len(c.points)-1].Bytes
	if got := c.Quantile(1.0); got != last {
		t.Errorf("Quantile(1) = %d, want %d", got, last)
	}
	if got := c.Quantile(1.5); got != last {
		t.Errorf("Quantile(1.5) = %d, want %d", got, last)
	}
}

// TestPoissonDeterministicAcrossWorkers pins the open-loop workload to
// the virtual clock: replaying the same seed on the parallel harness
// yields the identical arrival sequence at any worker count.
func TestPoissonDeterministicAcrossWorkers(t *testing.T) {
	type arrivals struct {
		Sizes []int
		Count int
	}
	run := func(workers int) []arrivals {
		seeds := []int64{100, 101, 102, 103, 104, 105}
		rs := harness.Run(seeds, workers, func(seed int64) arrivals {
			engine := sim.New()
			r := sim.NewRand(seed)
			var a arrivals
			gen := NewPoisson(engine, r, WebSearch(), 50000, func(size int) {
				a.Sizes = append(a.Sizes, size)
			})
			engine.RunUntil(10 * sim.Millisecond)
			gen.Stop()
			a.Count = gen.Started
			return a
		})
		out := make([]arrivals, len(rs))
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("cell %d: %v", i, r.Err)
			}
			out[i] = r.Value
		}
		return out
	}
	serial := run(1)
	fanned := run(4)
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatal("Poisson arrival sequences differ between 1 and 4 workers")
	}
	for i, a := range serial {
		if a.Count == 0 || a.Count != len(a.Sizes) {
			t.Fatalf("cell %d: Started=%d with %d sizes", i, a.Count, len(a.Sizes))
		}
	}
}
