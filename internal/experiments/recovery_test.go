package experiments

import (
	"reflect"
	"testing"

	"rocc/internal/harness"
	"rocc/internal/sim"
)

// shortRecovery keeps test cells cheap: 4 ms run, outage 1.2→2 ms.
func shortRecovery(p Protocol, kill string) RecoveryConfig {
	return RecoveryConfig{
		Protocol:  p,
		Kill:      kill,
		Duration:  4 * sim.Millisecond,
		FailAt:    1200 * sim.Microsecond,
		RestoreAt: 2 * sim.Millisecond,
		Seed:      1,
	}
}

func TestRecoveryBaselineHasNoDip(t *testing.T) {
	for _, p := range []Protocol{ProtoRoCC, ProtoHPCC} {
		r := RunRecovery(shortRecovery(p, KillNone))
		if r.BaselineGbps <= 0 {
			t.Errorf("%s: zero baseline goodput", p)
		}
		if r.DipDepth > 0.15 {
			t.Errorf("%s: %.0f%% dip without any failure", p, r.DipDepth*100)
		}
		if r.T90 != -1 {
			t.Errorf("%s: T90 = %v for the no-kill baseline, want -1", p, r.T90)
		}
		if r.Reconverges != 0 || r.BlackholeDrops != 0 || r.LinkDownDrops != 0 {
			t.Errorf("%s: failure counters nonzero on a clean run: %+v", p, r)
		}
	}
}

// TestRecoveryIdleKillScheduleByteIdentical: a kill scheduled past the
// end of the run must be byte-identical to no kill at all, for every
// protocol — the failure layer costs nothing until it fires.
func TestRecoveryIdleKillScheduleByteIdentical(t *testing.T) {
	for _, p := range AllProtocols() {
		base := RunRecovery(shortRecovery(p, KillNone))
		idle := shortRecovery(p, KillLink)
		idle.FailAt = 10 * sim.Millisecond // beyond Duration: never fires
		idle.RestoreAt = 11 * sim.Millisecond
		armed := RunRecovery(idle)
		if base.DeliveredBytes != armed.DeliveredBytes {
			t.Errorf("%s: idle kill schedule changed delivery: %d vs %d",
				p, base.DeliveredBytes, armed.DeliveredBytes)
		}
		if !reflect.DeepEqual(base.Bins, armed.Bins) {
			t.Errorf("%s: idle kill schedule perturbed the goodput series", p)
		}
		if armed.Reconverges != 0 || armed.BlackholeDrops != 0 {
			t.Errorf("%s: idle schedule executed: %+v", p, armed)
		}
	}
}

// TestRecoveryAllProtocolsSurviveKills is the sweep's core contract:
// every protocol rides out both kill kinds — the outage is detected
// (reconvergences fired, packets were lost) and traffic flows afterward.
func TestRecoveryAllProtocolsSurviveKills(t *testing.T) {
	for _, p := range AllProtocols() {
		for _, kill := range []string{KillLink, KillSwitch} {
			r := RunRecovery(shortRecovery(p, kill))
			if r.Reconverges != 2 {
				t.Errorf("%s/%s: reconverges = %d, want 2 (fail + restore)", p, kill, r.Reconverges)
			}
			if r.BlackholeDrops+r.LinkDownDrops == 0 {
				t.Errorf("%s/%s: outage lost no packets; kill never bit", p, kill)
			}
			if r.BaselineGbps <= 0 {
				t.Errorf("%s/%s: no pre-failure goodput", p, kill)
			}
			if r.DipDepth < 0 {
				t.Errorf("%s/%s: negative dip %.2f", p, kill, r.DipDepth)
			}
			if r.JainPostRecovery <= 0 || r.JainPostRecovery > 1 {
				t.Errorf("%s/%s: post-recovery Jain %.3f out of range — flows wedged?",
					p, kill, r.JainPostRecovery)
			}
			if r.DeliveredBytes == 0 {
				t.Errorf("%s/%s: nothing delivered", p, kill)
			}
		}
	}
}

func TestRecoveryDeterministicAcrossWorkers(t *testing.T) {
	cells := []RecoveryConfig{
		shortRecovery(ProtoRoCC, KillLink),
		shortRecovery(ProtoHPCC, KillSwitch),
		shortRecovery(ProtoDCQCN, KillLink),
		shortRecovery(ProtoTIMELY, KillSwitch),
	}
	serial := values(t, harness.Run(cells, 1, RunRecovery))
	parallel := values(t, harness.Run(cells, 4, RunRecovery))
	for i := range cells {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("cell %d (%s/%s) differs between -workers 1 and 4",
				i, cells[i].Protocol, cells[i].Kill)
		}
	}
}

func TestRecoveryCellsCoverTheMatrix(t *testing.T) {
	cells := RecoveryCells(RecoveryConfig{Seed: 3})
	want := len(AllProtocols()) * 2
	if len(cells) != want {
		t.Fatalf("RecoveryCells built %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[string(c.Protocol)+"/"+c.Kill] = true
		if c.Seed != 3 {
			t.Errorf("cell lost the base seed")
		}
	}
	for _, p := range AllProtocols() {
		if !seen[string(p)+"/"+KillLink] || !seen[string(p)+"/"+KillSwitch] {
			t.Errorf("protocol %s missing a kill kind", p)
		}
	}
}
