package experiments

import (
	"testing"

	"rocc/internal/sim"
)

// faultsBase keeps the robustness cells short enough for the test suite
// while leaving the control loop a few dozen update intervals to settle.
func faultsBase() FaultsConfig {
	return FaultsConfig{Duration: 8 * sim.Millisecond, Seed: 1}
}

// TestFaultsZeroCellDeterministic: the fault-free cell must reproduce
// bit-for-bit across runs — the injector draws no randomness at zero
// probabilities, so the schedule is untouched.
func TestFaultsZeroCellDeterministic(t *testing.T) {
	a := RunFaults(faultsBase())
	b := RunFaults(faultsBase())
	if a != b {
		t.Errorf("fault-free cell diverged:\n%+v\n%+v", a, b)
	}
	// Staleness may fire even fault-free (the scenario opts in and CPs go
	// legitimately silent when queues drain), but validation must not:
	// nothing mangles CNPs here.
	if a.CNPsRejected != 0 {
		t.Errorf("fault-free cell rejected %d CNPs", a.CNPsRejected)
	}
	if a.ThroughputGbps < 30 {
		t.Errorf("fault-free baseline only %.1f Gb/s on a 40G bottleneck", a.ThroughputGbps)
	}
}

// TestFaultsGracefulDegradationAtTenPercentLoss is the PR's acceptance
// criterion: with 10% CNP loss the scenario completes, staleness
// recovery fires, and throughput stays within 20% of the fault-free
// baseline.
func TestFaultsGracefulDegradationAtTenPercentLoss(t *testing.T) {
	base := RunFaults(faultsBase())
	cfg := faultsBase()
	cfg.CNPLoss = 0.1
	lossy := RunFaults(cfg)
	if lossy.Faults.CNPsLost == 0 {
		t.Fatal("10% CNP loss dropped nothing")
	}
	if lossy.StaleRecoveries == 0 {
		t.Error("no staleness recoveries under sustained CNP loss")
	}
	if lossy.ThroughputGbps < base.ThroughputGbps*0.8 {
		t.Errorf("throughput degraded past 20%%: %.2f Gb/s vs baseline %.2f",
			lossy.ThroughputGbps, base.ThroughputGbps)
	}
}

// TestFaultsCorruptFeedbackRejected: corrupted CNPs must be caught by RP
// validation (counted, rate untouched), not steer flows off a cliff.
func TestFaultsCorruptFeedbackRejected(t *testing.T) {
	cfg := faultsBase()
	cfg.CNPCorrupt = 0.05
	res := RunFaults(cfg)
	if res.Faults.Corrupted == 0 {
		t.Fatal("5% corruption mangled nothing")
	}
	if res.CNPsRejected == 0 {
		t.Error("no corrupted CNPs rejected by validation")
	}
	base := RunFaults(faultsBase())
	if res.ThroughputGbps < base.ThroughputGbps*0.8 {
		t.Errorf("corruption collapsed throughput: %.2f vs %.2f Gb/s",
			res.ThroughputGbps, base.ThroughputGbps)
	}
}

// TestFaultsUnfiredRows: a flap period longer than the run and a CP
// stall window that never opens leave their rows unfired.
// (TestGoldenFaultRowsFire checks that every row of the golden runs fires.)
func TestFaultsUnfiredRows(t *testing.T) {
	long := faultsBase()
	long.FlapPeriod, long.FlapDown = 2*long.Duration, long.Duration/5
	if RunFaults(long).Fired() {
		t.Error("a flap period longer than the run fired")
	}
	short := faultsBase()
	short.Duration = sim.Millisecond
	if stall := FaultsCells(short, nil, 0)[3]; RunFaults(stall).Fired() {
		t.Errorf("%s fired in a 1 ms run", stall.Label())
	}
}

// TestFaultsCellsShape pins the default sweep layout the CLI relies on:
// baseline first, then one row per loss rate, corruption, flap, stall.
func TestFaultsCellsShape(t *testing.T) {
	cells := FaultsCells(faultsBase(), []float64{0.05, 0.1}, 0)
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	if cells[0].Label() != "fault-free" {
		t.Errorf("first cell is %q, want fault-free", cells[0].Label())
	}
	if cells[1].CNPLoss != 0.05 || cells[2].CNPLoss != 0.1 {
		t.Errorf("loss rows wrong: %v %v", cells[1].CNPLoss, cells[2].CNPLoss)
	}
	if cells[3].CNPCorrupt == 0 || cells[4].FlapPeriod == 0 || cells[5].StallPeriod == 0 {
		t.Error("corrupt/flap/stall rows missing")
	}
}
