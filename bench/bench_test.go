package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary, so a
// test can drive the real child-process path: with BENCH_AS_MAIN set it
// runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// inProcess runs children as function calls.
func inProcess(_ context.Context, a childArgs) childResult { return runChild(a) }

// benchmarkJSON is the file the driver reads, at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("%s:\n got  %v\n want %v", what, g, w)
	}
}

// TestFullReport runs the whole default command at tiny sizes: every
// workload untraced and traced, every probe, the cross-check. Exit code 0
// means every output check held: digests equal across repetitions, equal
// between each _k2 workload and its twin, and equal between traced and
// untraced runs — which for star_protocols is all seven protocols under
// the wrappers. The report must then name exactly what BENCHMARK.json
// names.
func TestFullReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-tiny", "-reps", "2", "-out", out}, &stdout, &stderr, inProcess)
	if code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("ops attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
	}
	if h := rep.Header; h.GoVersion == "" || h.NProc == 0 || h.GOMAXPROCS == 0 || h.Reps != 2 || h.Seed != 1 {
		t.Errorf("incomplete header: %+v", h)
	}

	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantWorkloads, wantE2E, wantLayer []string
	for i, w := range b.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		if i < len(workloads) && w.Why != workloads[i].Why {
			t.Errorf("workload %s: BENCHMARK.json why differs from spec.go", w.Name)
		}
	}
	for i, m := range b.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		if s := endToEnd[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %s: BENCHMARK.json %+v differs from spec.go %+v", m.Name, m, s)
		}
	}
	for i, m := range b.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		if i >= len(perLayer) {
			continue
		}
		if s := perLayer[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %s: BENCHMARK.json %+v differs from spec.go %+v", m.Name, m, s)
		}
	}
	for _, n := range append(append(append([]string(nil), wantWorkloads...), wantE2E...), wantLayer...) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the permitted form", n)
		}
	}
	if strings.Join(b.Paths, " ") != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}

	var gotWorkloads []string
	for _, wr := range rep.Workloads {
		gotWorkloads = append(gotWorkloads, wr.Name)
		sameNames(t, wr.Name+" end-to-end metrics", keys(wr.EndToEnd), wantE2E)
		sameNames(t, wr.Name+" per-layer metrics", keys(wr.PerLayer), wantLayer)
		for _, m := range endToEnd {
			if v := wr.EndToEnd[m.Name]; v.Value <= 0 || v.N != 2 {
				t.Errorf("%s %s = %+v, want a positive median of 2", wr.Name, m.Name, v)
			}
		}
		if len(wr.Attribution) == 0 || wr.TraceFile == "" {
			t.Errorf("%s: no traced attribution", wr.Name)
		}
		if _, err := os.Stat(wr.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", wr.Name, err)
		}
		sum := 0.0
		for _, a := range wr.Attribution {
			sum += a.SharePct
		}
		if sum < 95 || sum > 105 {
			t.Errorf("%s: layer self times plus unattributed cover %.1f%% of the traced wall, want within 5%% of it", wr.Name, sum)
		}
	}
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)

	// Every probe ran and every protocol ran under the wrappers. (Which
	// callbacks a protocol has is its own business: RoCC never sees an
	// ACK, TIMELY never a CNP, so those stay unmeasured, n = 0.)
	measured := map[string]bool{}
	for _, wr := range rep.Workloads {
		for n, v := range wr.PerLayer {
			if v.N > 0 {
				measured[n] = true
			}
		}
	}
	for _, m := range perLayer {
		if m.Src == srcProbe && !measured[m.Name] {
			t.Errorf("probe %s did not run", m.Name)
		}
	}
	for _, layer := range protocolLayers {
		for _, m := range []string{".allow_ns", ".cell_wall_s"} {
			if !measured[layer+m] {
				t.Errorf("%s%s is measured on no workload", layer, m)
			}
		}
	}
}

// TestTimedInvocation checks the form BENCHMARK.json's command is run
// in: one JSON object on the last line, with the end-to-end metrics
// untraced and every per-layer metric traced.
func TestTimedInvocation(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-tiny", "-out", filepath.Join(t.TempDir(), "r.json"),
			"--workload", wlFCTK2, "--seed", "5", "--seconds", "0", "--trace", traced}
		if code := run(context.Background(), args, &stdout, &stderr, inProcess); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s\n%s", traced, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line: %v", traced, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: last line %s", traced, lines[len(lines)-1])
		}
		want := map[string]string{}
		if traced == "0" {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		sameNames(t, "trace "+traced+" metrics", keys(line.Metrics), keys(want))
		for n, m := range line.Metrics {
			if m.Unit != want[n] || m.Value == nil {
				t.Errorf("trace %s: metric %s = %+v, want unit %q", traced, n, m, want[n])
			}
		}
	}
}

// TestPlantedFailure drives the real child-process path with a check
// that is made to fail: failed operations and a non-zero exit code.
func TestPlantedFailure(t *testing.T) {
	t.Setenv("BENCH_AS_MAIN", "1")
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-tiny", "-plant", "-only", wlScale, "-reps", "1", "-trace=false", "-check=false", "-out", out}
	if code := run(context.Background(), args, &stdout, &stderr, nil); code == 0 {
		t.Fatalf("exit code 0 with a planted failure\n%s", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Attempted == 0 {
		t.Errorf("ops attempted %d, failed %d, want failures", rep.Attempted, rep.Failed)
	}
	if v := rep.Workloads[0].EndToEnd[mSetup]; v.Value <= 0 {
		t.Errorf("child process reported no set-up time: %+v", v)
	}
}

// fakeCC records which optional controller contracts were reached.
type fakeCC struct {
	netsim.NoCC
	rerouted, rewound, stopped bool
}

func (f *fakeCC) OnReroute(sim.Time)       { f.rerouted = true }
func (f *fakeCC) OnRewind(sim.Time, int64) { f.rewound = true }
func (f *fakeCC) Stop()                    { f.stopped = true }

// TestWrapperForwardsOptionalContracts: netsim finds RouteAware,
// RetxAware and Stop by type assertion on the flow's controller, so the
// wrapper must offer all three and pass them on.
func TestWrapperForwardsOptionalContracts(t *testing.T) {
	inner := &fakeCC{}
	var cc netsim.FlowCC = wrapFlow(newLayerStats())(inner)
	cc.(netsim.RouteAware).OnReroute(0)
	cc.(netsim.RetxAware).OnRewind(0, 0)
	cc.(interface{ Stop() }).Stop()
	if !inner.rerouted || !inner.rewound || !inner.stopped {
		t.Errorf("forwarded reroute %v, rewind %v, stop %v", inner.rerouted, inner.rewound, inner.stopped)
	}
	// A controller without them must not grow them through the wrapper.
	plain := wrapFlow(newLayerStats())(netsim.NoCC{})
	plain.(netsim.RouteAware).OnReroute(0)
	plain.(netsim.RetxAware).OnRewind(0, 0)
	plain.(interface{ Stop() }).Stop()
}
