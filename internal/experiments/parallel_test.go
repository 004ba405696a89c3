package experiments

import (
	"reflect"
	"testing"

	"rocc/internal/harness"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

// values unpacks a sweep's results, failing the test on any failed cell.
func values[R any](t *testing.T, rs []harness.Result[R]) []R {
	t.Helper()
	out := make([]R, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		out[i] = r.Value
	}
	return out
}

func TestFig11GridDeterministicAcrossWorkers(t *testing.T) {
	type cell struct {
		p    Protocol
		seed int64
	}
	var cells []cell
	for _, p := range []Protocol{ProtoRoCC, ProtoDCQCN} {
		for seed := int64(1); seed <= 2; seed++ {
			cells = append(cells, cell{p, seed})
		}
	}
	run := func(c cell) Fig11Row {
		return RunFig11(c.p, Fig11Config{Duration: 4 * sim.Millisecond, Seed: c.seed})
	}
	serial := values(t, harness.Run(cells, 1, run))
	parallel := values(t, harness.Run(cells, 8, run))
	for i, c := range cells {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("proto %s seed %d: workers=8 row differs from workers=1", c.p, c.seed)
		}
	}
}

// fctReps is cfg at seeds 1 and 2, the cells of a two-repetition sweep.
func fctReps(cfg FCTConfig) []FCTConfig {
	cells := []FCTConfig{cfg, cfg}
	cells[0].Seed, cells[1].Seed = 1, 2
	return cells
}

func TestFCTRepsDeterministicAcrossWorkers(t *testing.T) {
	cells := fctReps(FCTConfig{
		Protocol: ProtoRoCC,
		Workload: workload.FBHadoop(),
		Load:     0.7,
		FatTree:  topology.ScaledFatTree(4),
		Duration: 4 * sim.Millisecond,
	})
	serial := values(t, harness.Run(cells, 1, RunFCT))
	parallel := values(t, harness.Run(cells, 4, RunFCT))
	for rep := range serial {
		if !reflect.DeepEqual(serial[rep], parallel[rep]) {
			t.Errorf("rep %d: workers=4 result differs from workers=1", rep)
		}
	}
	// And the repetitions must actually differ (the seeds are live).
	if reflect.DeepEqual(serial[0].Bins, serial[1].Bins) {
		t.Error("rep 0 and rep 1 produced identical bins; seeds not applied")
	}
}

// TestRunFoldRepsMatchesRunFold: a fold sweep is [lossless, variant]
// cell pairs per repetition; run in parallel and paired with MakeFold,
// repetition 0 must equal the same pair run serially.
func TestRunFoldRepsMatchesRunFold(t *testing.T) {
	cfg := smallFCT(ProtoRoCC, workload.FBHadoop(), Lossless)
	cfg.Duration = 4 * sim.Millisecond
	var cells []FCTConfig
	for _, c := range fctReps(cfg) {
		variant := c
		variant.Mode = Unlimited
		cells = append(cells, c, variant)
	}
	rs := values(t, harness.Run(cells, 4, RunFCT))
	reps := []FoldResult{MakeFold(rs[0], rs[1]), MakeFold(rs[2], rs[3])}

	direct := MakeFold(RunFCT(cells[0]), RunFCT(cells[1]))
	if !reflect.DeepEqual(direct.Rows, reps[0].Rows) {
		t.Errorf("parallel rep 0 != serial fold:\n%+v\n%+v", direct.Rows, reps[0].Rows)
	}
	rows, ci, _, bufFold := MergeFolds(reps)
	if len(rows) != len(direct.Rows) || len(ci) != len(rows) {
		t.Fatalf("merged rows = %d, ci = %d", len(rows), len(ci))
	}
	if bufFold <= 0 {
		t.Error("merged buffer fold not computed")
	}
}

func TestAverageSeries(t *testing.T) {
	a := &stats.Series{Name: "q"}
	b := &stats.Series{Name: "q"}
	for i := 0; i < 5; i++ {
		a.Add(float64(i), 10)
		b.Add(float64(i), 20)
	}
	b.Add(5, 99) // extra tail must be truncated away
	avg := AverageSeries(a, b)
	if avg.Name != "q" || len(avg.Points) != 5 {
		t.Fatalf("avg = %q with %d points", avg.Name, len(avg.Points))
	}
	for i, p := range avg.Points {
		if p.T != float64(i) || p.V != 15 {
			t.Errorf("point %d = %+v, want (%d, 15)", i, p, i)
		}
	}
	single := AverageSeries(a)
	if !reflect.DeepEqual(single.Points, a.Points) {
		t.Error("single-run average changed the series")
	}
	if empty := AverageSeries(); len(empty.Points) != 0 {
		t.Error("empty average not empty")
	}
}
