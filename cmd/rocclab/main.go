// Command rocclab runs the §6.2 testbed scenarios on real UDP sockets
// over loopback (the DPDK-evaluation analog, Fig. 13): a user-space
// software switch with the RoCC congestion point, and three clients with
// reaction points. Compare its output with `roccsim fig13`.
//
// Usage:
//
//	rocclab [-dur 4s] [-rate 400e6] [uni|mix|both]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"rocc/internal/testbed"
)

func main() {
	dur := flag.Duration("dur", 4*time.Second, "scenario duration (real time)")
	rate := flag.Float64("rate", testbed.DefaultConfig().DrainRate, "software switch drain rate, bits/s")
	flag.Parse()
	// The CP's Fmax is the drain rate and must exceed its 1 Mb/s Fmin.
	if !(*rate > 1e6) || math.IsInf(*rate, 1) {
		fmt.Fprintf(os.Stderr, "-rate %v: want a finite rate above 1e6 bits/s\n", *rate)
		os.Exit(2)
	}

	which := "both"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	cfg := testbed.Config{DrainRate: *rate}
	qrefKB := cfg.CP().QrefBytes / 1000

	scenarios := []testbed.Scenario{testbed.Uniform, testbed.Mixed}
	switch which {
	case "uni":
		scenarios = scenarios[:1]
	case "mix":
		scenarios = scenarios[1:]
	case "both":
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q (want uni, mix or both)\n", which)
		os.Exit(2)
	}

	fmt.Printf("software switch: drain %.0f Mb/s, T=%v, Qref=%d KB\n",
		*rate/1e6, testbed.T, qrefKB)
	for _, sc := range scenarios {
		res, err := testbed.Run(cfg, sc, *dur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "testbed:", err)
			os.Exit(1)
		}
		fmt.Println(res)
		ideal := *rate / 3 / 1e6
		if sc == testbed.Mixed {
			// Max-min: clients 2 and 3 are innocent; client 1 gets the rest.
			ideal = *rate * 0.6 / 1e6
		}
		fmt.Printf("  (ideal fair rate %.1f Mb/s, reference queue %d KB)\n",
			ideal, qrefKB)
		fmt.Printf("  (switch forwarded %.1f Mb/s of its %.1f Mb/s drain rate)\n",
			res.ForwardedMbps, *rate/1e6)
	}
}
