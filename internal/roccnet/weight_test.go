package roccnet

import (
	"math"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// weightedStar is a 40G star whose bottleneck CP weights each flow by
// its class: flow i of the sources runs in class classOf(i), and a class
// outside weights gets weight 1.
type weightedStar struct {
	engine *sim.Engine
	cp     *CP
	flows  []*netsim.Flow
	class  map[netsim.FlowID]int
}

func newWeightedStar(sources int, weights []float64, classOf func(i int) int) *weightedStar {
	engine := sim.New()
	star := topology.BuildStar(engine, 1, sources, netsim.Gbps(40))
	ws := &weightedStar{engine: engine, class: map[netsim.FlowID]int{}}
	var weight func(netsim.FlowID) float64
	if weights != nil {
		weight = func(f netsim.FlowID) float64 {
			if c := ws.class[f]; c < len(weights) {
				return weights[c]
			}
			return 1
		}
	}
	ws.cp = Attach(star.Net, star.Switch, star.Bottleneck, CPOptions{Weight: weight})
	for i, src := range star.Sources {
		f := star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36), CC: NewFlowCC(src, RPOptions{}),
		})
		ws.class[f.ID] = classOf(i)
		ws.flows = append(ws.flows, f)
	}
	return ws
}

// classShares runs nPerClass flows of each class through one weighted
// bottleneck and returns the per-class goodput in Gb/s over the second
// half of a 20 ms run.
func classShares(weights []float64, nPerClass int) []float64 {
	ws := newWeightedStar(len(weights)*nPerClass, weights, func(i int) int { return i % len(weights) })
	ws.engine.RunUntil(10 * sim.Millisecond)
	mid := make([]int64, len(ws.flows))
	for i, f := range ws.flows {
		mid[i] = f.DeliveredBytes()
	}
	ws.engine.RunUntil(20 * sim.Millisecond)
	shares := make([]float64, len(weights))
	for i, f := range ws.flows {
		shares[ws.class[f.ID]] += float64(f.DeliveredBytes()-mid[i]) * 8 / 0.010 / 1e9
	}
	return shares
}

func TestWeightEqualClassesSplitEvenly(t *testing.T) {
	shares := classShares([]float64{1, 1}, 3)
	if math.Abs(shares[0]-shares[1]) > 2 {
		t.Errorf("equal weights split %v", shares)
	}
	if total := shares[0] + shares[1]; total < 36 {
		t.Errorf("total %v Gb/s, link underutilized", total)
	}
}

func TestWeightSplitsTwoToOne(t *testing.T) {
	shares := classShares([]float64{1, 0.5}, 3)
	if ratio := shares[0] / shares[1]; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("class split %v, ratio %.2f, want ~2", shares, ratio)
	}
}

func TestWeightOrdersThreeClasses(t *testing.T) {
	shares := classShares([]float64{1, 0.5, 0.25}, 2)
	if !(shares[0] > shares[1] && shares[1] > shares[2]) {
		t.Errorf("class ordering broken: %v", shares)
	}
	// 4:2:1 split of ~40G: expect roughly 22/11/5.7.
	if math.Abs(shares[0]-4*shares[2])/shares[0] > 0.35 {
		t.Errorf("4:1 spread off: %v", shares)
	}
}

func TestWeightKeepsIntraClassFairness(t *testing.T) {
	// Flows 0 and 1 in class 0, flows 2 and 3 in class 1.
	ws := newWeightedStar(4, []float64{1, 0.5}, func(i int) int { return i / 2 })
	ws.engine.RunUntil(20 * sim.Millisecond)
	f := ws.flows
	r0 := float64(f[0].DeliveredBytes()) / float64(f[1].DeliveredBytes())
	r1 := float64(f[2].DeliveredBytes()) / float64(f[3].DeliveredBytes())
	if r0 < 0.9 || r0 > 1.1 || r1 < 0.9 || r1 > 1.1 {
		t.Errorf("intra-class imbalance: %v %v", r0, r1)
	}
}

func TestWeightKeepsQueueControlled(t *testing.T) {
	ws := newWeightedStar(6, []float64{1, 0.25}, func(i int) int { return i % 2 })
	ws.engine.RunUntil(20 * sim.Millisecond)
	if q := ws.cp.port.DataQueueBytes(); q < 80*netsim.KB || q > 260*netsim.KB {
		t.Errorf("queue %d bytes, want near Qref", q)
	}
	if ws.cp.FairRateMbps() <= 0 {
		t.Error("base rate not computed")
	}
	ws.cp.Stop()
}

// TestUnitWeightIsNoWeight: a weight of 1 for every flow sends the CNPs
// a nil Weight sends, so both runs deliver the same bytes per flow.
func TestUnitWeightIsNoWeight(t *testing.T) {
	run := func(weights []float64) []int64 {
		ws := newWeightedStar(2, weights, func(int) int { return 0 })
		ws.engine.RunUntil(15 * sim.Millisecond)
		var got []int64
		for _, f := range ws.flows {
			got = append(got, f.DeliveredBytes())
		}
		return append(got, int64(ws.cp.CNPsSent))
	}
	plain, unit := run(nil), run([]float64{1})
	for i := range plain {
		if plain[i] != unit[i] {
			t.Fatalf("nil weight %v, unit weight %v (delivered bytes per flow, then CNPs sent)", plain, unit)
		}
	}
	if ratio := float64(plain[0]) / float64(plain[1]); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("single-class split %v", ratio)
	}
}
