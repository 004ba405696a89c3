package collective

import (
	"reflect"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

func smallCfg() ExpConfig {
	return ExpConfig{
		Collective: Config{
			Pattern:      Ring,
			Participants: 4,
			MessageBytes: 128 << 10,
			Iterations:   2,
		},
		Protocol: experiments.ProtoRoCC,
		Seed:     7,
	}
}

func TestRunExpCompletesAllModes(t *testing.T) {
	for _, mode := range netsim.AllOperatingModes() {
		cfg := smallCfg()
		cfg.Mode = mode
		res := RunExp(cfg)
		if res.Stalled() {
			t.Fatalf("%v: collective stalled at iter %d step %d",
				mode, res.Run.PendingIter, res.Run.PendingStep)
		}
		if res.Run.Completed != 2 {
			t.Fatalf("%v: completed %d iterations, want 2", mode, res.Run.Completed)
		}
		if res.IterP50 <= 0 || res.IterP99 < res.IterP50 {
			t.Fatalf("%v: bad percentiles p50=%v p99=%v", mode, res.IterP50, res.IterP99)
		}
		if mode.Lossless() && res.Drops != 0 {
			t.Fatalf("%v: %d drops on a lossless fabric", mode, res.Drops)
		}
	}
}

// A sweep must be byte-identical at any worker count: each cell owns a
// private engine, and the harness orders results by index.
func TestRunGridWorkerCountInvariance(t *testing.T) {
	base := smallCfg()
	base.Collective.Iterations = 1
	cells := Cells(base, netsim.AllOperatingModes())[:6] // TIMELY and QCN across the three modes
	values := func(rs []harness.Result[ExpResult]) []ExpResult {
		out := make([]ExpResult, len(rs))
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("cell %d: %v", i, r.Err)
			}
			out[i] = r.Value
		}
		return out
	}
	serial := values(harness.Run(cells, 1, RunExp))
	fanned := values(harness.Run(cells, 4, RunExp))
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatal("grid results differ between 1 and 4 workers")
	}
}

// The lossy mode must actually drop under incast pressure — and the
// collective must still complete over go-back-N.
func TestCCOnlyLossyDropsAndRecovers(t *testing.T) {
	cfg := ExpConfig{
		Collective: Config{
			Pattern:      PS,
			Participants: 12,
			MessageBytes: 2 << 20,
			Iterations:   1,
		},
		Protocol: experiments.ProtoDCQCN,
		Mode:     netsim.ModeCCOnlyLossy,
		Seed:     3,
	}
	res := RunExp(cfg)
	if res.Stalled() {
		t.Fatalf("lossy incast stalled at iter %d step %d",
			res.Run.PendingIter, res.Run.PendingStep)
	}
	if res.Drops == 0 {
		t.Fatal("12-wide incast into a 3x-threshold buffer dropped nothing")
	}
	if res.PFCFrames != 0 {
		t.Fatalf("lossy mode emitted %d PFC frames", res.PFCFrames)
	}
	if res.RetxBytes == 0 {
		t.Fatal("drops without retransmissions")
	}
}

// A link kill mid-collective: the hybrid fabric must finish anyway
// (reliable transfers reroute and retransmit).
func TestCollectiveSurvivesLinkKill(t *testing.T) {
	cfg := smallCfg()
	cfg.Collective.MessageBytes = 512 << 10
	cfg.Collective.Iterations = 4
	cfg.Kill = KillLink
	cfg.FailAt = 200 * sim.Microsecond
	cfg.RestoreAt = 2 * sim.Millisecond
	res := RunExp(cfg)
	if res.Stalled() {
		t.Fatalf("collective did not survive the link kill: stalled at iter %d step %d",
			res.Run.PendingIter, res.Run.PendingStep)
	}
	if res.Run.Completed != 4 {
		t.Fatalf("completed %d iterations, want 4", res.Run.Completed)
	}
}

func TestCellsCoverGrid(t *testing.T) {
	one := Cells(smallCfg(), []netsim.OperatingMode{netsim.ModePFCOnly})
	if len(one) != len(experiments.AllProtocols()) || one[0].Mode != netsim.ModePFCOnly {
		t.Fatalf("one-mode sweep = %d cells, first mode %v", len(one), one[0].Mode)
	}
	cells := Cells(smallCfg(), netsim.AllOperatingModes())
	if len(cells) != len(experiments.AllProtocols())*3 {
		t.Fatalf("cells = %d, want %d", len(cells), len(experiments.AllProtocols())*3)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		seen[string(c.Protocol)+"/"+c.Mode.String()] = true
	}
	if len(seen) != len(cells) {
		t.Fatal("duplicate protocol/mode cells")
	}
}
