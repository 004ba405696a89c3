// Command bench is the repository's one benchmark: host time, set-up
// time and peak memory of six named workloads, with per-layer
// attribution. It claims no gain; it is the yardstick later changes are
// judged by. See README.md in this directory for the glossary, the
// layer-to-end-to-end interaction table and the measured spread.
//
//	go run ./bench                       all six workloads, 5 repetitions, traced run, cross-check
//	go run ./bench -only soak_mix -reps 9
//	go run ./bench -selfcheck            two sets back to back, compared against the bounds
//	bash bench/run.sh --workload fct_hadoop --seed 7 --seconds 15 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, measured
// for a fixed time, one JSON object as the last line of output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil)
	stop()
	os.Exit(code)
}

// header records what a report was measured on and with.
type header struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Reps       int      `json:"reps"`
	Seconds    float64  `json:"seconds,omitempty"`
	Trace      bool     `json:"trace"`
	Workloads  []string `json:"workloads"`
	Note       string   `json:"note"`
}

// run is main without the process: it returns the exit code. launch
// overrides how children are started (nil execs this binary).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, launch launcher) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "seed for every generator (fabric RNG, soak base seed, star seed)")
		reps      = fs.Int("reps", 5, "untraced repetitions per workload (never below 5 for a reported baseline)")
		only      = fs.String("only", "", "run only this workload (comma-separated list)")
		out       = fs.String("out", filepath.Join("bench", "out", "report.json"), "where to write the JSON report")
		check     = fs.Bool("check", true, "cross-check the FCT and scale assemblies against experiments.RunFCT / RunScaleBench")
		selfcheck = fs.Bool("selfcheck", false, "run two sets back to back and compare their medians against the bounds")
		trace     = true

		// The form BENCHMARK.json's command is invoked in.
		workload = fs.String("workload", "", "measure one workload for -seconds and print one JSON object as the last line")
		seconds  = fs.Float64("seconds", 15, "with -workload: how long to measure")

		// Child mode and test hooks.
		child    = fs.Bool("child", false, "internal: run one workload once and print its report")
		traced   = fs.Bool("traced", false, "internal: child runs with wrappers and spans on")
		traceOut = fs.String("trace-out", "", "internal: where the child writes its Chrome trace")
		spawned  = fs.Int64("spawned", 0, "internal: when the driver launched the child, Unix ns")
		tiny     = fs.Bool("tiny", false, "test hook: tiny sizes")
		plant    = fs.Bool("plant", false, "test hook: every child reports a failed output check")
	)
	// -trace takes a value (-trace=false, --trace 0) in both invocation forms.
	fs.Func("trace", "run each workload once more with wrappers and spans on (default true)", func(v string) error {
		b, err := strconv.ParseBool(v)
		trace = b
		return err
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *child {
		a := childArgs{Workload: *workload, Seed: *seed, Traced: *traced, Tiny: *tiny, Plant: *plant, TraceOut: *traceOut}
		if *spawned > 0 {
			a.Spawned = time.Unix(0, *spawned)
		}
		res := runChild(a)
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	if launch == nil {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "bench: cannot find own binary to launch children: %v\n", err)
			return 1
		}
		launch = execLauncher(exe)
	}
	cfg := runConfig{
		Workloads: workloads, Seed: *seed, Reps: *reps, Trace: trace, Check: *check,
		Tiny: *tiny, Plant: *plant, OutDir: filepath.Dir(*out), Launch: launch, Log: stderr,
	}
	names := *only
	if *workload != "" {
		names = *workload
	}
	if names != "" {
		cfg.Workloads = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := findWorkload(name)
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			cfg.Workloads = append(cfg.Workloads, w)
		}
	}
	h := header{
		Commit: commit(ctx), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs(),
		Seed: *seed, Reps: *reps, Trace: trace,
		Note: "host-time metrics are medians over the untraced repetitions (n beside each); exact counts repeat bit for bit at a fixed seed",
	}
	for _, w := range cfg.Workloads {
		h.Workloads = append(h.Workloads, w.Name)
	}

	switch {
	case *workload != "":
		// Timed form: repeat until -seconds have passed. The traced form
		// spends half of that on untraced repetitions (it still needs their
		// median) and the rest on the traced run and the probes.
		cfg.Check = false
		cfg.Reps, cfg.Seconds = 3, *seconds
		if trace {
			cfg.Reps, cfg.Seconds = 2, *seconds/2
		}
		h.Reps, h.Seconds = cfg.Reps, cfg.Seconds
		rep := runSet(ctx, cfg).report(h)
		printReport(stdout, rep)
		return printContract(stdout, rep, trace)
	case *selfcheck:
		cfg.Trace, cfg.Check = false, false
		return selfCheck(ctx, cfg, h, stdout)
	}
	rep := runSet(ctx, cfg).report(h)
	printReport(stdout, rep)
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nreport written to %s\n", *out)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// commit names the measured commit when the benchmark runs inside a git
// checkout.
func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// printContract prints the one JSON object BENCHMARK.json's consumer
// reads: the end-to-end metrics of the untraced repetitions, or, for a
// traced invocation, every per-layer metric.
func printContract(w io.Writer, rep *report, traced bool) int {
	wr := rep.Workloads[0]
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	from := wr.EndToEnd
	if traced {
		from = wr.PerLayer
	}
	for name, v := range from {
		metrics[name] = metric{Value: v.Value, Unit: v.Unit}
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Failed == 0, "attempted": attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// printReport prints every metric by name with its unit and sample count.
func printReport(w io.Writer, rep *report) {
	h := rep.Header
	fmt.Fprintf(w, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, reps %d, trace %v\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Seed, h.Reps, h.Trace)
	fmt.Fprintf(w, "       %s\n", h.Note)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: ops attempted %d, failed %d; digest %s\n", wr.Name, wr.Attempted, wr.Failed, wr.Digest)
		fmt.Fprintf(w, "   why: %s\n   reference: %s\n   outputs:", wr.Why, wr.Reference)
		for _, k := range sortedKeys(wr.Outputs) {
			fmt.Fprintf(w, " %s=%v", k, wr.Outputs[k])
		}
		fmt.Fprintln(w)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "   metric\tunit\tmedian\tmin\tmax\tn")
		for _, m := range endToEnd {
			printValue(tw, m.Name, wr.EndToEnd[m.Name])
		}
		for _, m := range perLayer {
			if v, ok := wr.PerLayer[m.Name]; ok && v.N > 0 {
				printValue(tw, m.Name, v)
			}
		}
		tw.Flush()
		if len(wr.Attribution) == 0 {
			continue
		}
		fmt.Fprintf(w, "   traced run: wall_s %.4f (untraced median %.4f); self time by layer:\n", wr.TracedWallS, wr.EndToEnd[mWall].Value)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		sum := 0.0
		for _, a := range wr.Attribution {
			fmt.Fprintf(tw, "     %s\t%.4f s\t%.1f %%\n", a.Layer, a.SelfS, a.SharePct)
			sum += a.SharePct
		}
		fmt.Fprintf(tw, "     (sum)\t\t%.1f %%\n", sum)
		tw.Flush()
		if wr.TraceFile != "" {
			fmt.Fprintf(w, "   trace: %s\n", wr.TraceFile)
		}
	}
	for _, sr := range rep.Sides {
		fmt.Fprintf(w, "\n== %s: ops attempted %d, failed %d;", sr.Name, sr.Attempted, sr.Failed)
		for _, k := range sortedKeys(sr.Outputs) {
			fmt.Fprintf(w, " %s=%v", k, sr.Outputs[k])
		}
		fmt.Fprintln(w)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "\ntotal: ops attempted %d, failed %d\n", rep.Attempted, rep.Failed)
}

func printValue(w io.Writer, name string, v value) {
	fmt.Fprintf(w, "   %s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", name, v.Unit, v.Value, v.Min, v.Max, v.N)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selfCheck runs two full sets of the same code back to back and holds
// every end-to-end metric of every workload to its own bound: if the
// benchmark cannot tell a commit from itself it cannot judge a change.
func selfCheck(ctx context.Context, cfg runConfig, h header, w io.Writer) int {
	fmt.Fprintln(cfg.Log, "set 1")
	first := runSet(ctx, cfg).report(h)
	fmt.Fprintln(cfg.Log, "set 2")
	second := runSet(ctx, cfg).report(h)
	bad := first.Failed + second.Failed
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset 1\tset 2\tdiff\tbound\t")
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		if a.Digest != b.Digest || !reflect.DeepEqual(a.Outputs, b.Outputs) {
			fmt.Fprintf(tw, "%s\tdigest\t%s\t%s\t\t\tDIFFERS\n", a.Name, a.Digest, b.Digest)
			bad++
		}
		for _, m := range endToEnd {
			x, y := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			diff := 0.0
			if x > 0 {
				diff = (y - x) / x
			}
			verdict := "ok"
			if diff > m.Bound || diff < -m.Bound {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f %%\t%.0f %%\t%s\n", a.Name, m.Name, x, y, diff*100, m.Bound*100, verdict)
		}
	}
	tw.Flush()
	for _, f := range append(first.Failures, second.Failures...) {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
