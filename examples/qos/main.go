// QoS: the paper's §8 future-work extension — class-level fairness.
// Six flows share one 40 Gb/s bottleneck; gold-class flows carry weight
// 1.0 and silver-class flows 0.5, so the classes split the link 2:1
// while flows within each class remain max-min fair.
//
//	go run ./examples/qos
package main

import (
	"fmt"

	"rocc"
	"rocc/internal/qos"
	"rocc/internal/roccnet"
)

func main() {
	engine := rocc.NewEngine()
	star := rocc.BuildStar(engine, 1, 6, rocc.Gbps(40))

	classNames := map[int]string{0: "gold", 1: "silver"}
	classIdx := map[rocc.FlowID]int{}

	qos.Attach(star.Net, star.Switch, star.Bottleneck, qos.Options{
		Weights:  []float64{1, 0.5},
		Classify: func(f rocc.FlowID) int { return classIdx[f] },
	})

	var flows []*rocc.Flow
	for i, src := range star.Sources {
		f := star.Net.StartFlow(src, star.Dst, rocc.FlowConfig{
			Size: -1, MaxRate: rocc.Gbps(36),
			CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
		})
		classIdx[f.ID] = i % 2
		flows = append(flows, f)
	}
	engine.RunUntil(20 * rocc.Millisecond)

	var shares [2]float64
	fmt.Println("flow  class   goodput")
	for _, f := range flows {
		g := float64(f.DeliveredBytes()) * 8 / engine.Now().Seconds() / 1e9
		c := classIdx[f.ID]
		shares[c] += g
		fmt.Printf("%4d  %-6s %6.2f Gb/s\n", f.ID, classNames[c], g)
	}
	fmt.Printf("\nclass totals: gold %.1f Gb/s, silver %.1f Gb/s (ratio %.2f, want 2.0)\n",
		shares[0], shares[1], shares[0]/shares[1])
}
