package qos

import (
	"math"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// runClasses drives nPerClass flows of each class through one bottleneck
// with the given weights and returns the per-class goodput in Gb/s over
// the second half of the run.
func runClasses(t *testing.T, weights []float64, nPerClass int) []float64 {
	t.Helper()
	engine := sim.New()
	star := topology.BuildStar(engine, 1, len(weights)*nPerClass, netsim.Gbps(40))
	classOf := make(map[netsim.FlowID]int)
	Attach(star.Net, star.Switch, star.Bottleneck, Options{
		Weights:  weights,
		Classify: func(f netsim.FlowID) int { return classOf[f] },
	})
	var flows []*netsim.Flow
	for i, src := range star.Sources {
		f := star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36),
			CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
		})
		classOf[f.ID] = i % len(weights)
		flows = append(flows, f)
	}
	engine.RunUntil(10 * sim.Millisecond)
	mid := make([]int64, len(flows))
	for i, f := range flows {
		mid[i] = f.DeliveredBytes()
	}
	engine.RunUntil(20 * sim.Millisecond)
	shares := make([]float64, len(weights))
	for i, f := range flows {
		shares[classOf[f.ID]] += float64(f.DeliveredBytes()-mid[i]) * 8 / 0.010 / 1e9
	}
	return shares
}

func TestEqualWeightsSplitEvenly(t *testing.T) {
	shares := runClasses(t, []float64{1, 1}, 3)
	if math.Abs(shares[0]-shares[1]) > 2 {
		t.Errorf("equal weights split %v", shares)
	}
	if total := shares[0] + shares[1]; total < 36 {
		t.Errorf("total %v Gb/s, link underutilized", total)
	}
}

func TestWeightedSplitTwoToOne(t *testing.T) {
	shares := runClasses(t, []float64{1, 0.5}, 3)
	ratio := shares[0] / shares[1]
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("class split %v, ratio %.2f, want ~2", shares, ratio)
	}
}

func TestThreeClasses(t *testing.T) {
	shares := runClasses(t, []float64{1, 0.5, 0.25}, 2)
	if !(shares[0] > shares[1] && shares[1] > shares[2]) {
		t.Errorf("class ordering broken: %v", shares)
	}
	// 4:2:1 split of ~40G: expect roughly 22/11/5.7.
	if math.Abs(shares[0]-4*shares[2])/shares[0] > 0.35 {
		t.Errorf("4:1 spread off: %v", shares)
	}
}

func TestIntraClassFairness(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 4, netsim.Gbps(40))
	classOf := map[netsim.FlowID]int{}
	Attach(star.Net, star.Switch, star.Bottleneck, Options{
		Weights:  []float64{1, 0.5},
		Classify: func(f netsim.FlowID) int { return classOf[f] },
	})
	var flows []*netsim.Flow
	for i, src := range star.Sources {
		f := star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36),
			CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
		})
		classOf[f.ID] = i / 2 // flows 0,1 class 0; flows 2,3 class 1
		flows = append(flows, f)
	}
	engine.RunUntil(20 * sim.Millisecond)
	// Within each class, the two flows must match.
	r0 := float64(flows[0].DeliveredBytes()) / float64(flows[1].DeliveredBytes())
	r1 := float64(flows[2].DeliveredBytes()) / float64(flows[3].DeliveredBytes())
	if r0 < 0.9 || r0 > 1.1 || r1 < 0.9 || r1 > 1.1 {
		t.Errorf("intra-class imbalance: %v %v", r0, r1)
	}
}

func TestQueueStaysControlled(t *testing.T) {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 6, netsim.Gbps(40))
	classOf := map[netsim.FlowID]int{}
	cp := Attach(star.Net, star.Switch, star.Bottleneck, Options{
		Weights:  []float64{1, 0.25},
		Classify: func(f netsim.FlowID) int { return classOf[f] },
	})
	for i, src := range star.Sources {
		f := star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36),
			CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
		})
		classOf[f.ID] = i % 2
	}
	engine.RunUntil(20 * sim.Millisecond)
	q := star.Bottleneck.DataQueueBytes()
	if q < 80*netsim.KB || q > 260*netsim.KB {
		t.Errorf("queue %d bytes, want near Qref", q)
	}
	if cp.BaseRateMbps() <= 0 {
		t.Error("base rate not computed")
	}
	cp.Stop()
}

func TestDefaultsSingleClass(t *testing.T) {
	// With no weights/classifier, qos.CP degenerates to plain RoCC.
	engine := sim.New()
	star := topology.BuildStar(engine, 1, 2, netsim.Gbps(40))
	Attach(star.Net, star.Switch, star.Bottleneck, Options{})
	var flows []*netsim.Flow
	for _, src := range star.Sources {
		flows = append(flows, star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36),
			CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
		}))
	}
	engine.RunUntil(15 * sim.Millisecond)
	ratio := float64(flows[0].DeliveredBytes()) / float64(flows[1].DeliveredBytes())
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("single-class split %v", ratio)
	}
}
