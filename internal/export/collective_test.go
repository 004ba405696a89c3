package export

import (
	"encoding/csv"
	"strings"
	"testing"

	"rocc/internal/collective"
	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// cellFixture is a hand-built two-cell sweep: one clean hybrid cell with
// two completed steps, one stalled lossy cell with a deadlock note.
func cellFixture() []collective.ExpResult {
	cfg := collective.ExpConfig{
		Collective: collective.Config{
			Pattern: collective.Ring, Participants: 4,
			MessageBytes: 1 << 20, Chunks: 2, Iterations: 3,
		},
		Protocol: experiments.ProtoRoCC,
		Mode:     netsim.ModeHybrid,
	}.Filled()
	ok := collective.ExpResult{
		Config: cfg,
		Run: collective.Result{
			Completed: 3,
			Steps: []collective.StepRecord{
				{Iter: 0, Step: 0, Flows: 4, Start: 0, Duration: 100 * sim.Microsecond, Straggler: 10 * sim.Microsecond},
				{Iter: 0, Step: 1, Flows: 4, Start: 100 * sim.Microsecond, Duration: 120 * sim.Microsecond, Straggler: 15 * sim.Microsecond},
			},
			Elapsed: 220 * sim.Microsecond,
		},
		IterP50: 1.1e6, IterP95: 1.2e6, IterP99: 1.3e6,
		StragglerP99: 1.5e4,
	}
	bad := ok
	bad.Config.Protocol = experiments.ProtoDCQCN
	bad.Config.Mode = netsim.ModePFCOnly
	bad.Run.Completed = 1
	bad.Run.Stalled = true
	bad.Run.PendingIter = 1
	bad.Run.PendingStep = 5
	bad.Deadlock = "edge0->core0->edge0"
	bad.Drops = 0
	bad.PFCFrames = 4242
	return []collective.ExpResult{ok, bad}
}

func TestCollectiveSummaryCSV(t *testing.T) {
	var sb strings.Builder
	if err := CollectiveSummary(&sb, cellFixture()...); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2 cells", len(rows))
	}
	head := rows[0]
	col := func(name string) int {
		for i, h := range head {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	if got := rows[1][col("protocol")]; got != "RoCC" {
		t.Errorf("protocol = %q", got)
	}
	if got := rows[1][col("mode")]; got != "hybrid" {
		t.Errorf("mode = %q", got)
	}
	if got := rows[1][col("completed")]; got != "3" {
		t.Errorf("completed = %q", got)
	}
	if got := rows[1][col("stalled")]; got != "false" {
		t.Errorf("stalled = %q", got)
	}
	if got := rows[2][col("mode")]; got != "pfconly" {
		t.Errorf("stalled cell mode = %q", got)
	}
	if got := rows[2][col("deadlock")]; got != "edge0->core0->edge0" {
		t.Errorf("deadlock = %q", got)
	}
	if got := rows[2][col("pending_step")]; got != "5" {
		t.Errorf("pending_step = %q", got)
	}
	if got := rows[2][col("pfc_frames")]; got != "4242" {
		t.Errorf("pfc_frames = %q", got)
	}
}

func TestCollectiveStepsCSV(t *testing.T) {
	var sb strings.Builder
	if err := CollectiveSteps(&sb, cellFixture()...); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 steps from each cell (the fixture's stalled cell shares
	// the clean cell's step records).
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want header + 4 steps", len(rows))
	}
	if want := []string{"protocol", "mode", "iter", "step", "flows", "start_ns", "duration_ns", "straggler_ns"}; strings.Join(rows[0], ",") != strings.Join(want, ",") {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][0] != "RoCC" || rows[1][1] != "hybrid" {
		t.Errorf("cell label = %v", rows[1][:2])
	}
	if rows[2][3] != "1" || rows[2][6] != "120000" || rows[2][7] != "15000" {
		t.Errorf("step row = %v", rows[2])
	}
	if rows[3][0] != "DCQCN" || rows[3][1] != "pfconly" {
		t.Errorf("second cell label = %v", rows[3][:2])
	}
}
