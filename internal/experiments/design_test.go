package experiments

import (
	"errors"
	"fmt"
	"testing"

	"rocc/internal/core"
	"rocc/internal/flowtable"
	"rocc/internal/netsim"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
)

// The design star every DESIGN.md §4 row runs on: designN sources at
// designGbps into one sink, each offering 36 Gb/s for designDur, seed 1.
// Steady statistics are taken over the second half.
const (
	designN    = 10
	designGbps = 40
	designDur  = 15 * sim.Millisecond
)

// designRun is what one row measures on the design star.
type designRun struct {
	queueKB, queueStdKB float64   // bottleneck backlog over the second half
	endQueueKB          float64   // bottleneck backlog at the end
	pfc                 int       // PFC frames over the whole run
	gbps, runGbps       float64   // bottleneck throughput: second half, whole run
	flowGbps            []float64 // each flow's goodput over the second half
	fairGbps            float64   // the bottleneck CP's fair rate at the end
}

func runDesignStar(spec RunSpec) designRun {
	spec.Seed = 1
	star := newStar(ProtoRoCC, designN, designGbps, false, spec)
	flows := star.startAll(netsim.Gbps(36))
	sampler := NewSampler(star.engine, 0)
	queue := sampler.Queue("q", star.Bottleneck)
	tput := sampler.PortThroughput("t", star.Bottleneck)
	flowGbps := runMeasured(star.engine, flows, designDur/2, designDur)
	half := (designDur / 2).Seconds()
	return designRun{
		queueKB:    queue.MeanAfter(half),
		queueStdKB: queue.StdDevAfter(half),
		endQueueKB: queue.Points[len(queue.Points)-1].V,
		pfc:        star.Net.TotalPFCFrames(),
		gbps:       tput.MeanAfter(half),
		runGbps:    tput.MeanAfter(0),
		flowGbps:   flowGbps,
		fairGbps:   star.Mix.CPs[star.Bottleneck].FairRateMbps() / 1000,
	}
}

// settled is the band a converged loop stays in: the queue at Qref
// (150 KB) within 20 %, its deviation under 10 % of Qref, the end queue
// in 80–260 KB, the link at least 95 % busy over the second half and 30
// Gb/s over the whole run, and every flow within 30 % of the fair share.
func (d designRun) settled() error {
	var errs []error
	if d.queueKB < 120 || d.queueKB > 180 {
		errs = append(errs, fmt.Errorf("queue %.1f KB, want 150 ± 30", d.queueKB))
	}
	if d.queueStdKB > 15 {
		errs = append(errs, fmt.Errorf("queue std %.2f KB, want ≤ 15", d.queueStdKB))
	}
	if d.endQueueKB < 80 || d.endQueueKB > 260 {
		errs = append(errs, fmt.Errorf("end queue %.1f KB, want 80–260", d.endQueueKB))
	}
	if d.gbps < 0.95*designGbps || d.runGbps < 30 {
		errs = append(errs, fmt.Errorf("throughput %.2f Gb/s (%.2f over the run), want ≥ %.0f (30)", d.gbps, d.runGbps, 0.95*designGbps))
	}
	share := d.gbps / designN
	for i, g := range d.flowGbps {
		if g < 0.7*share || g > 1.3*share {
			errs = append(errs, fmt.Errorf("flow %d at %.2f Gb/s, want %.2f ± 30 %%", i, g, share))
		}
	}
	return errors.Join(errs...)
}

// advertises checks the CP's fair rate is the link's fair share C/N
// within 30 %.
func (d designRun) advertises() error {
	if want := float64(designGbps) / designN; d.fairGbps < 0.7*want || d.fairGbps > 1.3*want {
		return fmt.Errorf("fair rate %.2f Gb/s, want %.1f ± 30 %%", d.fairGbps, want)
	}
	return nil
}

// converges is the claim of every row whose change should not matter.
func converges(d, _ designRun) error { return errors.Join(d.settled(), d.advertises()) }

// designRow is one DESIGN.md §4 design choice: the bullet it backs, its
// claim in one sentence, the run that changes the choice, and the check
// of the claim's direction against the paper's design (base).
type designRow struct {
	id, claim string
	spec      RunSpec
	check     func(d, base designRun) error
}

func designRows() []designRow {
	mdOff, autoTuneOff := core.CPConfig40G(), core.CPConfig40G()
	mdOff.DisableMD = true
	autoTuneOff.DisableAutoTune = true
	table := func(t flowtable.Table) RunSpec { return RunSpec{RoCCOpts: roccnet.CPOptions{Table: t}} }
	interval := func(t sim.Time) RunSpec {
		return RunSpec{RoCCOpts: roccnet.CPOptions{T: t}, RoCCRP: roccnet.RPOptions{RecoveryTimer: 5 * t}}
	}
	return []designRow{
		{"4.1/md-off", "Without two-level MD the incast's start overshoots into PFC: at least 4× the pause frames.",
			RunSpec{RoCCOpts: roccnet.CPOptions{Core: mdOff}},
			func(d, base designRun) error {
				if d.pfc < 4*base.pfc {
					return fmt.Errorf("%d PFC frames, baseline %d: want ≥ 4×", d.pfc, base.pfc)
				}
				return nil
			}},
		{"4.2/auto-tune-off", "Pinning α, β to α̃, β̃ leaves the queue at least 2× noisier about Qref.",
			RunSpec{RoCCOpts: roccnet.CPOptions{Core: autoTuneOff}},
			func(d, base designRun) error {
				if d.queueStdKB < 2*base.queueStdKB {
					return fmt.Errorf("queue std %.2f KB, baseline %.2f: want ≥ 2×", d.queueStdKB, base.queueStdKB)
				}
				return nil
			}},
		{"4.3/queue", "The queue-occupancy table converges the incast.",
			table(flowtable.NewQueueTable()), converges},
		{"4.3/bounded", "The bounded table converges the incast like the queue table.",
			table(flowtable.NewBoundedTable(400, 500*sim.Microsecond)), converges},
		{"4.3/afd", "The AFD table converges the incast like the queue table.",
			table(flowtable.NewAFDTable(3000, 64)), converges},
		{"4.3/elephanttrap", "The ElephantTrap table converges the incast like the queue table.",
			table(flowtable.NewElephantTrap(0.25, 64, sim.NewRand(1))), converges},
		{"4.3/bubblecache", "The BubbleCache table converges the incast like the queue table.",
			table(flowtable.NewBubbleCache(0.5, 16, 64, 2, sim.NewRand(1))), converges},
		{"4.4/cnp-in-data-class", "CNPs demoted into the data class still converge the loop.",
			RunSpec{RoCCOpts: roccnet.CPOptions{CNPClass: netsim.ClassData}}, converges},
		{"4.5/host-computed", "Hosts replicating Alg. 1 from the CNPs' raw queue observations converge the incast in the same band.",
			RunSpec{
				RoCCOpts: roccnet.CPOptions{HostComputed: true},
				RoCCRP:   roccnet.RPOptions{HostRegistry: func(core.CPKey) core.CPConfig { return core.CPConfig40G() }},
			},
			converges},
		{"4.6/T20us", "T = 20 µs, half the default, stays in the band.", interval(20 * sim.Microsecond), converges},
		{"4.6/T80us", "T = 80 µs, twice the default, stays in the band.", interval(80 * sim.Microsecond), converges},
		{"4.6/T160us", "T = 160 µs, four times the default, destabilizes the loop: the queue swings at least 10× wider and the link loses over 5 %.",
			interval(160 * sim.Microsecond),
			func(d, base designRun) error {
				if d.queueStdKB < 10*base.queueStdKB || d.gbps > 0.95*designGbps {
					return fmt.Errorf("queue std %.2f KB (baseline %.2f), %.2f Gb/s: want ≥ 10× and < %.0f Gb/s",
						d.queueStdKB, base.queueStdKB, d.gbps, 0.95*designGbps)
				}
				return nil
			}},
	}
}

// TestDesignChoices asserts each DESIGN.md §4 design choice by the
// direction of its claim against the paper's design on the same star.
func TestDesignChoices(t *testing.T) {
	base := runDesignStar(RunSpec{})
	if err := converges(base, base); err != nil {
		t.Fatalf("the paper's design does not converge the design star: %v", err)
	}
	for _, row := range designRows() {
		t.Run(row.id, func(t *testing.T) {
			d := runDesignStar(row.spec)
			if err := row.check(d, base); err != nil {
				t.Errorf("%s\n%v", row.claim, err)
			}
		})
	}
}
