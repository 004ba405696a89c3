// Quickstart: build a 4-source single-bottleneck network, enable RoCC on
// the congested egress port, and watch the fair rate and queue converge.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"rocc"
)

func main() {
	engine := rocc.NewEngine()

	// A star: 4 sources and 1 destination on 40 Gb/s links; the switch
	// egress toward the destination is the bottleneck.
	star := rocc.BuildStar(engine, 1, 4, rocc.Gbps(40))

	// Wire RoCC: the congestion point on the bottleneck port, a
	// reaction point per flow.
	mix := rocc.NewMix(star.Net, 0)
	mix.EnablePort(rocc.ProtoRoCC, star.Bottleneck)
	for _, src := range star.Sources {
		// Persistent flows offering 90% of the link rate each: 4x36 Gb/s
		// into a 40 Gb/s bottleneck.
		mix.StartFlow(rocc.ProtoRoCC, src, star.Dst, -1, rocc.Gbps(36))
	}

	cp := mix.CPs[star.Bottleneck]
	fmt.Println("t(ms)  fair-rate(Gb/s)  queue(KB)   [ideal: 10 Gb/s, 150 KB]")
	for t := rocc.Millisecond; t <= 15*rocc.Millisecond; t += rocc.Millisecond {
		engine.RunUntil(t)
		fmt.Printf("%5.0f  %15.2f  %9.0f\n",
			t.Millis(), cp.FairRateMbps()/1000,
			float64(star.Bottleneck.DataQueueBytes())/1000)
	}
	fmt.Printf("\nPFC pause frames: %d (stable queues make PFC unnecessary)\n",
		star.Net.TotalPFCFrames())
}
