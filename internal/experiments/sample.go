package experiments

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
)

// Sampler records time series from the running simulation on a fixed
// period (100 µs unless overridden).
//
// A Sampler is bound to one engine and is not safe for concurrent use;
// under the parallel harness each (experiment × repetition) cell builds
// its own engine and its own Sampler, which is what keeps fan-out
// deterministic.
type Sampler struct {
	period sim.Time
	fns    []func(now sim.Time)
}

// NewSampler starts a periodic sampler.
func NewSampler(engine *sim.Engine, period sim.Time) *Sampler {
	if period == 0 {
		period = 100 * sim.Microsecond
	}
	s := &Sampler{period: period}
	engine.NewTicker(period, func() {
		now := engine.Now()
		for _, fn := range s.fns {
			fn(now)
		}
	})
	return s
}

// Queue records a port's data-class backlog in KB.
func (s *Sampler) Queue(name string, port *netsim.Port) *stats.Series {
	series := &stats.Series{Name: name}
	s.fns = append(s.fns, func(now sim.Time) {
		series.Add(now.Seconds(), float64(port.DataQueueBytes())/float64(netsim.KB))
	})
	return series
}

// Value records an arbitrary gauge.
func (s *Sampler) Value(name string, fn func() float64) *stats.Series {
	series := &stats.Series{Name: name}
	s.fns = append(s.fns, func(now sim.Time) {
		series.Add(now.Seconds(), fn())
	})
	return series
}

// FairRate records the fair rate of the port's RoCC congestion point in
// Gb/s; a port under a baseline, which advertises no rate, records its
// throughput instead.
func (s *Sampler) FairRate(mix *Mix, port *netsim.Port) *stats.Series {
	if cp := mix.CPs[port]; cp != nil {
		return s.Value("fair-rate", func() float64 { return cp.FairRateMbps() / 1000 })
	}
	return s.PortThroughput("bottleneck", port)
}

// runMeasured runs the engine to from, then to until, and returns each
// flow's goodput in Gb/s over that window.
func runMeasured(engine *sim.Engine, flows []*netsim.Flow, from, until sim.Time) []float64 {
	engine.RunUntil(from)
	then := delivered(flows)
	engine.RunUntil(until)
	return windowGbps(delivered(flows), then, until-from)
}

// delivered snapshots every flow's delivered-byte counter, one end of a
// goodput measurement window.
func delivered(flows []*netsim.Flow) []int64 {
	bytes := make([]int64, len(flows))
	for i, f := range flows {
		bytes[i] = f.DeliveredBytes()
	}
	return bytes
}

// windowGbps is each flow's goodput in Gb/s over a window of the given
// length, from the delivered snapshots at its start (then) and end (now).
// An empty window delivered nothing, so its rates are 0.
func windowGbps(now, then []int64, window sim.Time) []float64 {
	rates := make([]float64, len(now))
	if window <= 0 {
		return rates
	}
	for i := range now {
		rates[i] = float64(now[i]-then[i]) * 8 / window.Seconds() / 1e9
	}
	return rates
}

// AverageSeries returns the point-wise mean of several repetitions'
// series — the averaged queue/rate curve the paper plots over its five
// runs. All runs must be sampled on the same schedule (same period and
// duration), which derived-seed harness repetitions guarantee; the
// output is truncated to the shortest run and keeps the first run's
// timestamps and name. A single run is returned unchanged in value.
func AverageSeries(runs ...*stats.Series) *stats.Series {
	if len(runs) == 0 {
		return &stats.Series{}
	}
	n := len(runs[0].Points)
	for _, r := range runs[1:] {
		if len(r.Points) < n {
			n = len(r.Points)
		}
	}
	out := &stats.Series{Name: runs[0].Name}
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, r := range runs {
			sum += r.Points[i].V
		}
		out.Add(runs[0].Points[i].T, sum/float64(len(runs)))
	}
	return out
}

// PortThroughput records a port's transmitted data rate in Gb/s.
func (s *Sampler) PortThroughput(name string, port *netsim.Port) *stats.Series {
	series := &stats.Series{Name: name}
	var last uint64
	s.fns = append(s.fns, func(now sim.Time) {
		cur := port.TxDataBytes
		gbps := float64(cur-last) * 8 / s.period.Seconds() / 1e9
		last = cur
		series.Add(now.Seconds(), gbps)
	})
	return series
}
