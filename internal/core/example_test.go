package core_test

import (
	"fmt"

	"rocc/internal/core"
)

// ExampleCP drives the congestion point's fair-rate computation by hand:
// a deep queue triggers the multiplicative decrease, and a stable queue
// at the reference holds the rate still.
func ExampleCP() {
	cp := core.NewCP(core.CPConfig40G())
	fmt.Printf("start: %.0f Mb/s\n", cp.FairRateMbps())

	cp.Update(400_000) // above Qmax: MD floors the rate
	fmt.Printf("after overrun: %.0f Mb/s\n", cp.FairRateMbps())

	for i := 0; i < 2000; i++ { // empty queue: the PI climbs back
		cp.Update(0)
	}
	fmt.Printf("after recovery: %.0f Mb/s\n", cp.FairRateMbps())
	// Output:
	// start: 40000 Mb/s
	// after overrun: 100 Mb/s
	// after recovery: 40000 Mb/s
}

// ExampleRP shows the reaction point's CNP acceptance rule: the flow
// follows the most congested CP on its path.
func ExampleRP() {
	rp := core.NewRP(core.RPConfig{DeltaFMbps: 10, RmaxMbps: 40000})
	hop1 := core.CPKey{Node: 1}
	hop2 := core.CPKey{Node: 2}

	rp.ProcessCNP(500, hop1) // 5 Gb/s from the first congested hop
	fmt.Printf("rate: %.0f Mb/s\n", rp.RateMbps())

	rp.ProcessCNP(800, hop2) // higher rate from another hop: ignored
	fmt.Printf("rate: %.0f Mb/s\n", rp.RateMbps())

	rp.ProcessCNP(300, hop2) // lower rate: the new bottleneck wins
	fmt.Printf("rate: %.0f Mb/s\n", rp.RateMbps())
	// Output:
	// rate: 5000 Mb/s
	// rate: 5000 Mb/s
	// rate: 3000 Mb/s
}
