package testbed

import (
	"fmt"
	"time"

	"rocc/internal/stats"
)

// Scenario mirrors the two §6.2 traffic mixes, scaled to the software
// switch's drain rate C: "uni" offers C from each of 3 clients; "mix"
// offers C, 0.3C and 0.1C.
type Scenario string

// The §6.2 scenarios.
const (
	Uniform Scenario = "uni"
	Mixed   Scenario = "mix"
)

// Result is one testbed run's outcome.
type Result struct {
	Scenario     Scenario
	Queue        *stats.Series // KB over time
	FairRate     *stats.Series // Mb/s over time
	ClientRates  []float64     // mean per-client goodput over 2nd half, Mb/s
	SteadyQueKB  float64
	SteadyRateMb float64
	CNPs         int64
	// ForwardedMbps is what the switch forwarded to the sink over the
	// 2nd half, Mb/s: on a loaded host it can fall short of DrainRate,
	// and then so do the clients.
	ForwardedMbps float64
}

// Run executes a scenario for the given duration on a fresh switch and
// three clients, sampling every 20 ms.
func Run(cfg Config, scenario Scenario, duration time.Duration) (Result, error) {
	sw, err := NewSwitch(cfg)
	if err != nil {
		return Result{}, err
	}
	defer sw.Close()

	offered := []float64{cfg.DrainRate, cfg.DrainRate, cfg.DrainRate}
	if scenario == Mixed {
		offered = []float64{cfg.DrainRate, 0.3 * cfg.DrainRate, 0.1 * cfg.DrainRate}
	}
	clients := make([]*Client, len(offered))
	for i, o := range offered {
		c, err := NewClient(uint32(i+1), sw, o)
		if err != nil {
			return Result{}, err
		}
		clients[i] = c
		defer c.Close()
	}

	res := Result{
		Scenario: scenario,
		Queue:    &stats.Series{Name: "queue"},
		FairRate: &stats.Series{Name: "fair-rate"},
	}
	start := time.Now()
	half := duration / 2
	var halfSent []int64
	var halfForwarded int64
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for now := range ticker.C {
		elapsed := now.Sub(start)
		res.Queue.Add(elapsed.Seconds(), float64(sw.QueueBytes())/1000)
		res.FairRate.Add(elapsed.Seconds(), sw.FairRateMbps())
		if halfSent == nil && elapsed >= half {
			halfSent = make([]int64, len(clients))
			for i, c := range clients {
				halfSent[i] = c.SentBytes.Load()
			}
			halfForwarded = sw.Forwarded.Load()
		}
		if elapsed >= duration {
			break
		}
	}
	window := (duration - half).Seconds()
	for i, c := range clients {
		base := int64(0)
		if halfSent != nil {
			base = halfSent[i]
		}
		res.ClientRates = append(res.ClientRates, float64(c.SentBytes.Load()-base)*8/window/1e6)
		res.CNPs += c.CNPsRecv.Load()
	}
	res.ForwardedMbps = float64((sw.Forwarded.Load()-halfForwarded)*(headerLen+Payload)) * 8 / window / 1e6
	halfSec := half.Seconds()
	res.SteadyQueKB = res.Queue.MeanAfter(halfSec)
	res.SteadyRateMb = res.FairRate.MeanAfter(halfSec)
	return res, nil
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("testbed-%s: queue=%.0fKB fair=%.1fMb/s clients=%v",
		r.Scenario, r.SteadyQueKB, r.SteadyRateMb, r.ClientRates)
}
