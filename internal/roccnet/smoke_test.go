package roccnet

import (
	"math"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// buildStar creates n sources and one destination behind a single switch
// with RoCC enabled on the bottleneck egress, returning the network, the
// sources, the destination, and the congestion point.
func buildStar(t testing.TB, engine *sim.Engine, n int, gbps float64) (*netsim.Network, []*netsim.Host, *netsim.Host, *CP) {
	t.Helper()
	return buildStarCP(t, engine, n, gbps, CPOptions{})
}

// buildStarCP is buildStar with the CP's options.
func buildStarCP(t testing.TB, engine *sim.Engine, n int, gbps float64, opts CPOptions) (*netsim.Network, []*netsim.Host, *netsim.Host, *CP) {
	t.Helper()
	net := netsim.New(engine, 1)
	sw := net.AddSwitch("s0", netsim.BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 500 * netsim.KB,
	})
	dst := net.AddHost("dst")
	srcs := make([]*netsim.Host, n)
	rate := netsim.Gbps(gbps)
	delay := 1500 * sim.Nanosecond
	for i := range srcs {
		srcs[i] = net.AddHost("src")
		net.Connect(srcs[i], sw, rate, delay)
	}
	swPort, _ := net.Connect(sw, dst, rate, delay)
	net.ComputeRoutes()
	cp := Attach(net, sw, swPort, opts)
	return net, srcs, dst, cp
}

func TestStarConvergesToFairRate(t *testing.T) {
	engine := sim.New()
	net, srcs, dst, cp := buildStar(t, engine, 2, 40)
	var flows []*netsim.Flow
	for _, src := range srcs {
		cc := NewFlowCC(src, RPOptions{})
		flows = append(flows, net.StartFlow(src, dst, netsim.FlowConfig{
			Size:    -1,
			MaxRate: netsim.Gbps(36), // 90% offered load
			CC:      cc,
		}))
	}
	engine.RunUntil(5 * sim.Millisecond)
	var midDelivered int64
	for _, f := range flows {
		midDelivered += f.DeliveredBytes()
	}
	engine.RunUntil(10 * sim.Millisecond)

	fair := cp.FairRateMbps()
	if math.Abs(fair-20000) > 2000 {
		t.Errorf("fair rate = %.0f Mb/s, want ~20000", fair)
	}
	q := cp.port.DataQueueBytes()
	if q < 100*netsim.KB || q > 220*netsim.KB {
		t.Errorf("queue = %d B, want near Qref=150KB", q)
	}
	d0 := flows[0].DeliveredBytes()
	d1 := flows[1].DeliveredBytes()
	ratio := float64(d0) / float64(d1)
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("delivered bytes ratio = %.2f (d0=%d d1=%d), want ~1", ratio, d0, d1)
	}
	// Bottleneck should be nearly fully utilized at steady state.
	total := float64(d0+d1-midDelivered) * 8 / 0.005
	if total < 0.9*40e9 {
		t.Errorf("steady-state goodput = %.1f Gb/s, want > 36", total/1e9)
	}
	if net.TotalPFCFrames() != 0 {
		t.Logf("note: %d PFC frames generated", net.TotalPFCFrames())
	}
}
