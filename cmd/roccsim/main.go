// Command roccsim regenerates the tables and figures of the RoCC paper's
// evaluation (§6 and App. A) on the packet-level simulator.
//
// Usage:
//
//	roccsim [flags] [experiment]
//
// `roccsim -h` lists the experiments (default fig8), each with the flags
// it reads, and every flag with its default. The subcommands table below
// defines the experiments, and `all` runs the paper's tables and figures
// in its order. An experiment takes only the flags it declares, so a flag
// it does not read, like a value it cannot honour, exits 2 before
// anything runs. Output is seeded and deterministic: -workers and -shards
// move only wall time. A failed cell, or an output file that could not be
// written, still lets every other row print, then makes roccsim exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rocc/internal/experiments"
	"rocc/internal/export"
	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/plot"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/telemetry"
	"rocc/internal/workload"
)

// subcommand is one roccsim experiment. declare registers the flags it
// reads on fs and returns its run body, which reads their values once fs
// has parsed the command line; name is the experiment's own.
type subcommand struct {
	name    string
	inAll   bool // run by `roccsim all`
	declare func(fs *flag.FlagSet, name string) func(*out)
}

// subcommands defines every experiment once, in the order `all` runs
// those it includes; usage and dispatch are derived from it.
func subcommands() []subcommand {
	return []subcommand{
		{"table1", true, noFlags(runTable1)},
		{"fig5", true, noFlags(runFig5)},
		{"fig6", true, noFlags(runFig6)},
		{"fig7a", true, noFlags(func(o *out) { runFig7(o, "fig7a") })},
		{"fig7b", true, noFlags(func(o *out) { runFig7(o, "fig7b") })},
		{"fig8", true, fig8},
		{"fig9", true, fig9},
		{"fig11", true, fig11},
		{"fig12a", true, with(bindSweep, runFig12a)},
		{"fig12b", true, with(bindSweep, runFig12b)},
		{"fig13", true, with(bindSweep, runFig13)},
		{"fig14", true, fctFigs},
		{"fig15", true, fctFigs},
		{"fig16", true, fctFigs},
		{"table3", true, with(bindFCT, runTable3)},
		{"fig17", true, with(bindFCT, runFig17)},
		{"fig18", true, fold},
		{"fig19", true, with(bindSweep, runFig19)},
		{"fig20", true, fold},
		{"qos", true, qos},
		{"faults", false, faults},
		{"recovery", false, with(bindSweep, runRecoveryExp)},
		{"rollout", false, rollout},
		{"collective", false, collectiveExp},
		{"rogue", false, rogue},
		{"soak", false, soak},
		{"scale", false, scale},
		{"fluid", false, fluidExp},
		{"all", false, declareAll},
	}
}

// with declares an experiment whose body takes one group of shared flags.
func with[O any](bind func(*flag.FlagSet) O, body func(*out, O)) func(*flag.FlagSet, string) func(*out) {
	return func(fs *flag.FlagSet, _ string) func(*out) {
		opts := bind(fs)
		return func(o *out) { body(o, opts) }
	}
}

func noFlags(body func(*out)) func(*flag.FlagSet, string) func(*out) {
	return func(*flag.FlagSet, string) func(*out) { return body }
}

// declareAll declares every experiment `all` runs on one set, so a flag
// two of them read is bound to both, and runs them in order, a blank line
// after each.
func declareAll(fs *flag.FlagSet, _ string) func(*out) {
	var bodies []func(*out)
	for _, sc := range subcommands() {
		if sc.inAll {
			bodies = append(bodies, sc.declare(fs, sc.name))
		}
	}
	return func(o *out) {
		for _, body := range bodies {
			body(o)
			o.println()
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 1 when some
// part of the run failed, 2 for a usage error. All a run holds lives in
// this call, so concurrent runs share nothing.
func run(args []string, stdout, stderr io.Writer) int {
	j, code := parse(args, stderr)
	if j == nil {
		return code
	}
	return j.run(&out{stdout: stdout, stderr: stderr})
}

// run executes a parsed job, reporting to o, and returns its exit status.
func (j *job) run(o *out) int {
	stop, err := startProfiles(o, *j.cpuprofile, *j.memprofile)
	if err != nil {
		fmt.Fprintln(o.stderr, "cpuprofile:", err)
		return 1
	}
	start := time.Now()
	j.body(o)
	o.emitTelemetry()
	o.printf("\n(wall time %v)\n", time.Since(start).Round(time.Millisecond))
	stop()
	if o.failed {
		return 1
	}
	return 0
}

// job is one parsed command line: the named experiment's run body, bound
// to the flags it declared, and the profiles any run may write.
type job struct {
	body                   func(*out)
	cpuprofile, memprofile *string
}

// parse resolves a command line into a job without running anything. It
// returns a nil job and the exit status when there is nothing to run: 0
// after -h, 2 for a usage error.
func parse(args []string, stderr io.Writer) (*job, int) {
	// The name follows the flags, and only a flag's arity tells its value
	// from the name. So a first parse against every experiment's flags
	// finds the name, and a second against the named experiment's own
	// flags refuses any it does not read.
	union := newFlagSet("roccsim", stderr)
	for _, sc := range subcommands() {
		sc.declare(union, sc.name)
	}
	bindProfiles(union)
	union.Usage = func() { usage(union) }
	if err := union.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil, 0
	} else if err != nil {
		return nil, 2
	}
	name := "fig8" // the canonical single-bottleneck experiment
	if union.NArg() > 0 {
		name = union.Arg(0)
	}
	var declare func(*flag.FlagSet, string) func(*out)
	for _, sc := range subcommands() {
		if sc.name == name {
			declare = sc.declare
		}
	}
	if declare == nil || union.NArg() > 1 {
		fmt.Fprintf(stderr, "roccsim: want one known experiment, got %q\n", union.Args())
		union.Usage()
		return nil, 2
	}
	fs := newFlagSet("roccsim "+name, stderr)
	j := &job{body: declare(fs, name)}
	if j.cpuprofile, j.memprofile = bindProfiles(fs); fs.Parse(args) != nil {
		return nil, 2
	}
	return j, 0
}

func newFlagSet(name string, output io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(output)
	return fs
}

func bindProfiles(fs *flag.FlagSet) (cpu, mem *string) {
	return define(fs, "cpuprofile", "", "write a CPU profile of the run to this `file` (go tool pprof)", parseString),
		define(fs, "memprofile", "", "write an allocation profile taken after the run to this `file`", parseString)
}

// usage lists every experiment with the flags it declares, then every
// flag with its default.
func usage(union *flag.FlagSet) {
	w := union.Output()
	fmt.Fprintln(w, "usage: roccsim [flags] [experiment]\nexperiments (default fig8) and their flags; each also takes -cpuprofile and -memprofile:")
	for _, sc := range subcommands() {
		fs, names := newFlagSet(sc.name, w), []string{}
		sc.declare(fs, sc.name)
		fs.VisitAll(func(f *flag.Flag) { names = append(names, "-"+f.Name) })
		fmt.Fprintf(w, "  %-10s %s\n", sc.name, strings.Join(names, " "))
	}
	fmt.Fprintln(w, "flags:")
	union.PrintDefaults()
}

// out is where one run reports: tables to stdout, diagnostics to stderr.
// failed records that a cell or an output file failed, which makes the
// run exit 1 once every table has printed. tel is the telemetry bundle
// fig8 and fig9 attach to when the flags in telOpts ask for one. grid
// holds each §6.3 cell's surviving runs by fctKey; computed counts the
// runs made to fill it.
type out struct {
	stdout, stderr io.Writer
	failed         bool
	tel            *experiments.RunTelemetry
	telOpts        seriesOpts
	grid           map[string][]experiments.FCTResult
	computed       int
}

func (o *out) printf(format string, a ...any) { fmt.Fprintf(o.stdout, format, a...) }

func (o *out) println(a ...any) { fmt.Fprintln(o.stdout, a...) }

// check reports a non-nil err on stderr and marks the run failed.
func (o *out) check(what string, err error) {
	if err != nil {
		fmt.Fprintf(o.stderr, "%s: %v\n", what, err)
		o.failed = true
	}
}

// table is the one driver of every multi-cell table. It runs each cell
// reps times on the -workers pool; with seedOf set, repetition r of a
// cell runs with -seed+r (the one place a repetition's seed is derived),
// otherwise reps is 1 and each cell carries its seed. It returns, in cell
// order, the values of each cell's repetitions that did not fail. A
// failed repetition (a captured panic) is reported under its cell's
// label and marks the run failed; the rest of the table still runs.
func table[C, R any](o *out, s sweep, reps int, cells []C, seedOf func(*C) *int64, label func(C) string, run func(C) R) [][]R {
	var runs []C
	for _, c := range cells {
		for r := 0; r < reps; r++ {
			if seedOf != nil {
				*seedOf(&c) = *s.seed + int64(r)
			}
			runs = append(runs, c)
		}
	}
	vals := make([][]R, len(cells))
	for i, r := range harness.Run(runs, *s.workers, run) {
		if r.Err != nil {
			o.check(fmt.Sprintf("%s rep %d failed", label(runs[i]), i%reps), r.Err)
		} else {
			vals[i/reps] = append(vals[i/reps], r.Value)
		}
	}
	return vals
}

// mean averages each value cols picks from a row's repetitions, in
// repetition order.
func mean[R any](runs []R, cols func(R) []float64) []float64 {
	m := make([]float64, len(cols(runs[0])))
	for _, r := range runs {
		for k, v := range cols(r) {
			m[k] += v
		}
	}
	for k := range m {
		m[k] /= float64(len(runs))
	}
	return m
}

// writeFile creates path and fills it.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCSV writes name into the -csv directory dir, when one is given.
func (o *out) writeCSV(dir, name string, fill func(io.Writer) error) {
	if dir == "" {
		return
	}
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = writeFile(filepath.Join(dir, name), fill)
	}
	o.check("csv", err)
}

// emitSeries optionally plots and/or exports sampled series.
func (o *out) emitSeries(s seriesOpts, name string, series ...*stats.Series) {
	if *s.plot {
		o.println(plot.Line(name, 72, 12, series...))
	}
	o.writeCSV(*s.csv, name+".csv", func(w io.Writer) error { return export.Series(w, series...) })
}

// telemetry returns the run's telemetry bundle, made by the first caller
// whose -trace or -metrics asks for one; nil when neither does.
func (o *out) telemetry(s seriesOpts) *experiments.RunTelemetry {
	if o.tel == nil && (*s.trace != "" || *s.metrics) {
		o.tel, o.telOpts = experiments.NewRunTelemetry(), s
	}
	return o.tel
}

// emitTelemetry writes the -trace Chrome trace and the -metrics snapshot
// collected over the run.
func (o *out) emitTelemetry() {
	if o.tel == nil {
		return
	}
	if s := o.telOpts; *s.trace != "" {
		events := o.tel.Events()
		err := writeFile(*s.trace, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, events) })
		o.check("trace", err)
		if err == nil {
			o.printf("\nwrote %d trace events to %s (load in chrome://tracing or ui.perfetto.dev)\n", len(events), *s.trace)
		}
	}
	if s := o.telOpts; *s.metrics {
		snap := o.tel.Snapshot()
		o.println("\nmetrics snapshot:")
		o.check("metrics", snap.WriteText(o.stdout))
		o.writeCSV(*s.csv, "metrics.csv", func(w io.Writer) error { return export.Metrics(w, snap) })
	}
}

// startProfiles starts the CPU profile recording to cpuPath and returns
// the function that stops it and writes the allocation profile to memPath.
func startProfiles(o *out, cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			o.check("cpuprofile", cpu.Close())
		}
		if memPath != "" {
			o.check("memprofile", writeFile(memPath, func(w io.Writer) error {
				runtime.GC() // settle live objects so the heap profile shows retention, not garbage
				return pprof.Lookup("allocs").WriteTo(w, 0)
			}))
		}
	}, nil
}

func runFig5(o *out) {
	o.println("Fig 5: phase margin (deg) over (alpha, beta); T=40us, N=2")
	points := experiments.RunFig5()
	o.printf("%10s %10s %10s\n", "alpha", "beta", "margin")
	for _, p := range points {
		o.printf("%10.4f %10.4f %10.1f\n", p.Alpha, p.Beta, p.MarginDeg)
	}
}

func runFig6(o *out) {
	o.println("Fig 6: stability margin for N=2 vs N=10 (alpha=0.3, beta=3)")
	for _, r := range experiments.RunFig6() {
		o.printf("  N=%-3.0f margin=%6.1f deg  crossover=%8.0f Hz\n", r.N, r.MarginDeg, r.CrossoverHz)
	}
}

func runFig7(o *out, which string) {
	rows := experiments.RunFig7()
	if which == "fig7a" {
		o.println("Fig 7a: phase margin (deg) vs N for six alpha:beta pairs")
	} else {
		o.println("Fig 7b: loop bandwidth (Hz) vs N for six alpha:beta pairs")
	}
	var lastPair [2]float64
	for _, r := range rows {
		if [2]float64{r.Pair.Alpha, r.Pair.Beta} != lastPair {
			lastPair = [2]float64{r.Pair.Alpha, r.Pair.Beta}
			o.printf("pair alpha=%.4f beta=%.4f:\n", r.Pair.Alpha, r.Pair.Beta)
		}
		if which == "fig7a" {
			o.printf("  N=%-4.0f margin=%7.1f\n", r.N, r.MarginDeg)
		} else {
			o.printf("  N=%-4.0f bandwidth=%9.0f\n", r.N, r.BandwidthHz)
		}
	}
	o.println("auto-tuned (alpha~=0.3, beta~=3):")
	for _, r := range experiments.RunAutoTune(0.3, 3) {
		o.printf("  N=%-4.0f level=%-3d margin=%6.1f bandwidth=%9.0f\n", r.N, r.Level, r.MarginDeg, r.BandwidthHz)
	}
}

func fig8(fs *flag.FlagSet, _ string) func(*out) {
	s, reps, series := bindSweep(fs), bindReps(fs), bindSeries(fs)
	return func(o *out) {
		proto := *series.proto
		o.printf("Fig 8: fairness and stability as load increases (90%% offered load, %s)\n", proto)
		var cells []experiments.Fig8Config
		for _, gbps := range []float64{40, 100} {
			for _, n := range []int{2, 10, 100} {
				cells = append(cells, experiments.Fig8Config{
					N: n, Gbps: gbps, Duration: s.dur(), Protocol: proto,
				})
			}
		}
		tel := o.telemetry(series)
		run := func(c experiments.Fig8Config) experiments.Fig8Result {
			// Every run aggregates counters into the shared registry; the
			// flight recorder rides on the first cell's first repetition only,
			// so the Chrome trace shows one coherent run instead of
			// interleaved virtual clocks.
			if tel != nil {
				c.Telemetry = &experiments.RunTelemetry{Registry: tel.Registry}
				if c.N == cells[0].N && c.Gbps == cells[0].Gbps && c.Seed == *s.seed {
					c.Telemetry = tel
				}
			}
			return experiments.RunFig8(c)
		}
		vals := table(o, s, *reps, cells, func(c *experiments.Fig8Config) *int64 { return &c.Seed },
			func(c experiments.Fig8Config) string { return fmt.Sprintf("fig8 B=%.0fG N=%d", c.Gbps, c.N) }, run)
		for i, runs := range vals {
			if len(runs) == 0 {
				continue
			}
			c := cells[i]
			m := mean(runs, func(r experiments.Fig8Result) []float64 {
				return []float64{r.SteadyQueKB, r.SteadyRate, r.ConvergedAt, float64(r.PFCFrames)}
			})
			var queues, rates []*stats.Series
			for _, r := range runs {
				queues, rates = append(queues, r.Queue), append(rates, r.FairRate)
			}
			// RoCC's rate series is the CP fair rate (ideal B/N); baselines
			// report aggregate bottleneck throughput (ideal B).
			label, ideal := "fair", runs[0].ExpectedRate
			if proto != experiments.ProtoRoCC {
				label, ideal = "tput", c.Gbps
			}
			o.printf("  B=%3.0fG N=%-3d queue=%6.0f KB (ref %s)  %s=%7.2f Gb/s (ideal %.2f)  conv=%.1f ms  pfc=%d\n",
				c.Gbps, c.N, m[0], map[float64]string{40: "150", 100: "300"}[c.Gbps],
				label, m[1], ideal, m[2]*1e3, int(m[3]))
			o.emitSeries(series, fmt.Sprintf("fig8_B%.0f_N%d", c.Gbps, c.N),
				experiments.AverageSeries(queues...), experiments.AverageSeries(rates...))
		}
	}
}

func fig9(fs *flag.FlagSet, _ string) func(*out) {
	dur, seed, series := bindDur(fs), bindSeed(fs), bindSeries(fs)
	return func(o *out) {
		proto := *series.proto
		o.printf("Fig 9: convergence under exponential load increase/decrease (%s)\n", proto)
		r := experiments.RunFig9(experiments.Fig9Config{Phase: dur(), Seed: *seed, Protocol: proto, Telemetry: o.telemetry(series)})
		for i := range r.PhaseN {
			// Per-flow fair share, capped by the 36 Gb/s offered load.
			ideal := 40.0 / float64(r.PhaseN[i])
			if ideal > 36 {
				ideal = 36
			}
			o.printf("  phase %2d: N=%-3d fair=%7.2f Gb/s (ideal %.2f)\n", i, r.PhaseN[i], r.PhaseRates[i], ideal)
		}
		o.printf("  PFC frames: %d\n", r.PFCFrames)
		o.emitSeries(series, "fig9", r.Queue, r.FairRate)
	}
}

func fig11(fs *flag.FlagSet, _ string) func(*out) {
	s, reps := bindSweep(fs), bindReps(fs)
	return func(o *out) {
		o.println("Fig 11: comparison on N=10, B=40G (fairness / stability / convergence)")
		o.printf("  %-9s %22s %16s %8s %6s\n", "protocol", "per-flow rate (Gb/s)", "queue (KB)", "util", "Jain")
		type cell struct {
			p   experiments.Protocol
			cfg experiments.Fig11Config
		}
		var cells []cell
		for _, p := range experiments.MicroProtocols() {
			cells = append(cells, cell{p, experiments.Fig11Config{Duration: s.dur()}})
		}
		vals := table(o, s, *reps, cells, func(c *cell) *int64 { return &c.cfg.Seed },
			func(c cell) string { return "fig11 " + string(c.p) },
			func(c cell) experiments.Fig11Row { return experiments.RunFig11(c.p, c.cfg) })
		for _, rows := range vals {
			if len(rows) == 0 {
				continue
			}
			// Repetitions average; the rate envelope spans all of them.
			m := mean(rows, func(r experiments.Fig11Row) []float64 {
				return []float64{r.FlowRateMean, r.FlowRateStd, r.QueueMeanKB, r.QueueStdKB, r.Utilization, r.JainIndex}
			})
			lo, hi := rows[0].FlowRateMin, rows[0].FlowRateMax
			for _, r := range rows {
				lo, hi = min(lo, r.FlowRateMin), max(hi, r.FlowRateMax)
			}
			o.printf("  %-9s %6.2f ± %-5.2f [%4.1f..%4.1f] %7.0f ± %-6.0f %6.2f %6.4f\n",
				rows[0].Protocol, m[0], m[1], lo, hi, m[2], m[3], m[4], m[5])
		}
	}
}

func runFig12a(o *out, s sweep) {
	o.println("Fig 12a: multi-bottleneck fairness (ideal: D0=D5=5, D1..D4=8.75 Gb/s)")
	vals := table(o, s, 1, experiments.ComparisonProtocols(), nil, protoLabel("fig12a"),
		func(p experiments.Protocol) experiments.Fig12aRow { return experiments.RunFig12a(p, s.dur(), *s.seed) })
	for _, rs := range vals {
		for _, r := range rs {
			o.printf("  %-9s D0=%5.2f  D1..4=%5.2f %5.2f %5.2f %5.2f  D5=%5.2f\n",
				r.Protocol, r.D[0], r.D[1], r.D[2], r.D[3], r.D[4], r.D[5])
		}
	}
}

// protoLabel labels a table's per-protocol cells.
func protoLabel(name string) func(experiments.Protocol) string {
	return func(p experiments.Protocol) string { return name + " " + string(p) }
}

func runFig12b(o *out, s sweep) {
	o.println("Fig 12b: asymmetric-topology fairness (ideal: every flow 14.3 Gb/s)")
	vals := table(o, s, 1, experiments.ComparisonProtocols(), nil, protoLabel("fig12b"),
		func(p experiments.Protocol) experiments.Fig12bRow { return experiments.RunFig12b(p, s.dur(), *s.seed) })
	for _, rs := range vals {
		for _, r := range rs {
			o.printf("  %-9s slow(D0..D4)=%6.2f  fast(D5..D6)=%6.2f Gb/s\n", r.Protocol, r.SlowAvg, r.FastAvg)
		}
	}
}

func runFig13(o *out, s sweep) {
	o.println("Fig 13: testbed-twin simulation (3x10G; see cmd/rocclab for real sockets)")
	vals := table(o, s, 1, []experiments.Fig13Scenario{experiments.Fig13Uniform, experiments.Fig13Mixed}, nil,
		func(sc experiments.Fig13Scenario) string { return "fig13 sim-" + string(sc) },
		func(sc experiments.Fig13Scenario) experiments.Fig13Result {
			return experiments.RunFig13Sim(sc, s.dur(), *s.seed)
		})
	for _, rs := range vals {
		for _, r := range rs {
			want := "3.33"
			if r.Scenario == experiments.Fig13Mixed {
				want = "6.00"
			}
			o.printf("  sim-%s: queue=%5.0f KB (ref 75)  fair=%5.2f Gb/s (ideal %s)\n",
				r.Scenario, r.SteadyQueKB, r.SteadyRate, want)
		}
	}
}

// fctKey is a §6.3 cell's identity within a run, its grid key and failure
// label: every other input (-dur, -load, -shards, -reps, -seed) is the
// run's own.
func fctKey(c experiments.FCTConfig) string {
	return fmt.Sprintf("%s %s %v fan-in %d", c.Workload.Name(), c.Protocol, c.Mode, c.IncastFanIn)
}

// fctTable returns the -reps runs of the §6.3 cell of every comparison
// protocol on wl in mode at the given incast fan-in, a row per protocol.
// It runs only the cells the run's grid lacks, so each cell is computed,
// and a failed repetition reported, once per run.
func fctTable(o *out, f fctOpts, wl *workload.CDF, fanin int, mode experiments.BufferMode) [][]experiments.FCTResult {
	if o.grid == nil {
		o.grid = map[string][]experiments.FCTResult{}
	}
	var keys []string
	var missing []experiments.FCTConfig
	for _, p := range experiments.ComparisonProtocols() {
		c := experiments.FCTConfig{
			Protocol: p, Workload: wl, Load: *f.load, Mode: mode, Duration: f.dur(), Shards: *f.shards, IncastFanIn: fanin,
		}
		if _, ok := o.grid[fctKey(c)]; !ok {
			missing = append(missing, c)
		}
		keys = append(keys, fctKey(c))
	}
	for i, runs := range table(o, f.sweep, *f.reps, missing, func(c *experiments.FCTConfig) *int64 { return &c.Seed }, fctKey, experiments.RunFCT) {
		o.grid[fctKey(missing[i])] = runs
	}
	o.computed += len(missing) * *f.reps
	rows := make([][]experiments.FCTResult, len(keys))
	for i, k := range keys {
		rows[i] = o.grid[k]
	}
	return rows
}

func fctFigs(fs *flag.FlagSet, name string) func(*out) {
	f, csv := bindFCT(fs), bindCSV(fs)
	return func(o *out) {
		metric := map[string]string{"fig14": "average", "fig15": "90th percentile", "fig16": "99th percentile"}[name]
		o.printf("%s: %s FCT per flow-size bin (load %.0f%%)\n", name, metric, *f.load*100)
		for _, wl := range []*workload.CDF{workload.WebSearch(), workload.FBHadoop()} {
			o.printf("-- %s traffic --\n", wl.Name())
			vals := fctTable(o, f, wl, 0, experiments.Lossless)
			for i, p := range experiments.ComparisonProtocols() {
				var runs [][]stats.BinStat
				for _, r := range vals[i] {
					runs = append(runs, r.Bins)
				}
				bins, ci := experiments.MergeBins(runs)
				o.writeCSV(*csv, name+"_"+wl.Name()+"_"+string(p)+".csv",
					func(w io.Writer) error { return export.Bins(w, string(p), bins) })
				o.printf("  %-9s", p)
				for k, b := range bins {
					v := map[string]float64{"fig14": b.AvgMs, "fig15": b.P90Ms, "fig16": b.P99Ms}[name]
					o.printf(" %s:%.3f", sizeLabel(b.UpperBytes), v)
					if *f.reps > 1 {
						o.printf("±%.3f", ci[k])
					}
				}
				o.println()
			}
		}
	}
}

func runTable3(o *out, f fctOpts) {
	o.printf("Table 3: flow-level average rate allocation (FB_Hadoop, load %.0f%%)\n", *f.load*100)
	o.printf("  %-9s %14s %16s\n", "protocol", "avg rate (Mb/s)", "std dev (Mb/s)")
	for _, runs := range fctTable(o, f, workload.FBHadoop(), 0, experiments.Lossless) {
		if len(runs) == 0 {
			continue
		}
		m := mean(runs, func(r experiments.FCTResult) []float64 { return []float64{r.RateMean, r.RateStd} })
		o.printf("  %-9s %14.2f %16.2f\n", runs[0].Config.Protocol, m[0], m[1])
	}
}

func runFig17(o *out, f fctOpts) {
	o.printf("Fig 17: average queue size and PFC activation per CP tier (WebSearch, load %.0f%%)\n", *f.load*100)
	o.printf("  %-9s %26s %26s\n", "protocol", "avg queue KB (core/in/out)", "PFC frames (core/in/out)")
	for _, runs := range fctTable(o, f, workload.WebSearch(), 0, experiments.Lossless) {
		if len(runs) == 0 {
			continue
		}
		m := mean(runs, func(r experiments.FCTResult) []float64 {
			return []float64{r.Core.AvgQueueKB, r.IngressEdge.AvgQueueKB, r.EgressEdge.AvgQueueKB,
				float64(r.Core.PFCFrames), float64(r.IngressEdge.PFCFrames), float64(r.EgressEdge.PFCFrames)}
		})
		o.printf("  %-9s %8.0f /%6.0f /%6.0f %10d /%6d /%6d\n",
			runs[0].Config.Protocol, m[0], m[1], m[2], int(m[3]), int(m[4]), int(m[5]))
	}
}

// fold prints the FCT fold increase over the lossless fabric on FB_Hadoop
// of PFC off with unlimited buffers (fig18) or of the lossy fabric (fig20).
func fold(fs *flag.FlagSet, name string) func(*out) {
	f := bindFCT(fs)
	fanin := define(fs, "fanin", 0, "synchronized incast `fan-in` (0 = smooth Poisson; 30 = paper incast level)", parseNonNeg)
	return func(o *out) {
		mode, label, wl := experiments.Unlimited, "PFC disabled + unlimited buffer", workload.FBHadoop()
		if name == "fig20" {
			mode, label = experiments.Lossy, "lossy (buffer = 3x PFC threshold, go-back-N)"
		}
		o.printf("%s: FCT fold increase under %s (%s, load %.0f%%, fan-in %d)\n", name, label, wl.Name(), *f.load*100, *fanin)
		// -fanin 30 reproduces the paper's incast level; see EXPERIMENTS.md.
		lossless, variant := fctTable(o, f, wl, *fanin, experiments.Lossless), fctTable(o, f, wl, *fanin, mode)
		for i, p := range experiments.ComparisonProtocols() {
			// A repetition folds when both its runs, lossless and variant,
			// succeeded; each result carries its seed.
			var runs []experiments.FoldResult
			for _, base := range lossless[i] {
				for _, v := range variant[i] {
					if v.Config.Seed == base.Config.Seed {
						runs = append(runs, experiments.MakeFold(base, v))
					}
				}
			}
			if len(runs) == 0 {
				continue
			}
			rows, ci, retxShare, bufferFold := experiments.MergeFolds(runs)
			o.printf("  %-9s", p)
			for k, row := range rows {
				if row.Fold > 0 {
					o.printf(" %s:%.1fx", sizeLabel(row.UpperBytes), row.Fold)
					if *f.reps > 1 {
						o.printf("±%.1f", ci[k])
					}
				}
			}
			if mode == experiments.Lossy {
				o.printf("  retx=%.1f%%", retxShare*100)
			} else {
				o.printf("  buffer-fold=%.1fx", bufferFold)
			}
			o.println()
		}
	}
}

func runFig19(o *out, s sweep) {
	o.println("Fig 19 (App A.1): baseline verification ladder N: 1->4->1")
	vals := table(o, s, 1, []experiments.Protocol{experiments.ProtoDCQCN, experiments.ProtoHPCC}, nil, protoLabel("fig19"),
		func(p experiments.Protocol) experiments.Fig19Result { return experiments.RunFig19(p, s.dur(), *s.seed) })
	for _, rs := range vals {
		for _, r := range rs {
			o.printf("  %-9s\n", r.Protocol)
			for k, n := range r.PhaseN {
				o.printf("    N=%d rates: %s (ideal %.1f each)\n",
					n, strings.Trim(fmt.Sprintf("%.2f", r.PhaseRates[k]), "[]"), 40.0/float64(n))
			}
		}
	}
}

func sizeLabel(bytes int) string {
	switch {
	case bytes >= 1000*1000:
		return fmt.Sprintf("%dM", bytes/(1000*1000))
	case bytes >= 1000:
		return fmt.Sprintf("%dK", bytes/1000)
	default:
		return fmt.Sprintf("%d", bytes)
	}
}

// faults sweeps the robustness scenario: RoCC on the N=10 star
// with CNP loss, CNP corruption, a flapping access link and a stalled CP
// timer, reporting degradation against the fault-free baseline.
func faults(fs *flag.FlagSet, _ string) func(*out) {
	s := bindSweep(fs)
	cnpLoss := define(fs, "cnp-loss", -1.0, "CNP loss `probability` in [0, 1] (-1 = sweep 5/10/20%)",
		check(parseFloat, func(p float64) bool { return p == -1 || isProb(p) }, "a probability in [0, 1], or -1 for the sweep"))
	flap := define(fs, "link-flap", time.Duration(0), "link-flap `period` (0 = a quarter of the run), down 10% of it",
		check(parseSpan, func(d time.Duration) bool { return d == 0 || d >= 10 }, "0, or a period of 10ns or more"))
	return func(o *out) {
		o.println("faults: RoCC robustness under lost/late/corrupt feedback (N=10, B=40G)")
		base := experiments.FaultsConfig{Duration: s.dur(), Seed: *s.seed}
		losses := []float64{0.05, 0.10, 0.20}
		if *cnpLoss >= 0 {
			losses = []float64{*cnpLoss}
		}
		cells := experiments.FaultsCells(base, losses, sim.Time(flap.Nanoseconds()))
		label := func(c experiments.FaultsConfig) string { return "faults " + c.Label() }
		vals := table(o, s, 1, cells, nil, label, experiments.RunFaults)
		var ref float64 // fault-free throughput, cells[0]
		o.printf("  %-20s %16s %10s %7s %7s %6s %6s\n",
			"fault", "tput Gb/s", "queue KB", "jain", "stale", "rej", "lost")
		for i, vs := range vals {
			for _, v := range vs {
				if i == 0 {
					ref = v.ThroughputGbps
				}
				degr := ""
				if i > 0 && ref > 0 {
					degr = fmt.Sprintf("(%+.1f%%)", (v.ThroughputGbps/ref-1)*100)
				}
				if !v.Fired() {
					o.check(label(v.Config), errors.New("the fault never fired in the run, so the row repeats the fault-free one"))
				}
				lost := v.Faults.CNPsLost + v.Faults.CNPsStalled + v.Faults.Corrupted
				o.printf("  %-20s %7.2f %8s %10.1f %7.4f %7d %6d %6d\n",
					v.Config.Label(), v.ThroughputGbps, degr, v.QueueMeanKB, v.Jain,
					v.StaleRecoveries, v.CNPsRejected, lost)
			}
		}
	}
}

// runRecoveryExp sweeps every protocol through a hard core-link kill
// and a core-switch kill on the fat-tree, reporting goodput dip depth,
// time back to 90% of the pre-failure rate, and post-recovery fairness.
func runRecoveryExp(o *out, s sweep) {
	base := experiments.RecoveryConfig{Seed: *s.seed, Duration: s.dur()}
	cfg := base.Filled()
	o.printf("recovery: fat-tree 2x3x%d, fail %.1f ms -> restore %.1f ms (+%.0f us reconverge)\n",
		experiments.RecoveryHostsPerEdge, cfg.FailAt.Seconds()*1e3, cfg.RestoreAt.Seconds()*1e3,
		netsim.DefaultReconvergeDelay.Seconds()*1e6)
	vals := table(o, s, 1, experiments.RecoveryCells(base), nil,
		func(c experiments.RecoveryConfig) string { return fmt.Sprintf("recovery %s/%s", c.Protocol, c.Kill) }, experiments.RunRecovery)
	o.printf("  %-8s %-7s %10s %9s %7s %9s %6s %7s %8s\n",
		"protocol", "kill", "base Gb/s", "dip Gb/s", "depth", "t90 us", "jain", "blkhole", "retx KB")
	for _, vs := range vals {
		for _, v := range vs {
			t90 := "never"
			if v.T90 >= 0 {
				t90 = fmt.Sprintf("%.0f", v.T90.Seconds()*1e6)
			}
			o.printf("  %-8s %-7s %10.2f %9.2f %6.1f%% %9s %6.3f %7d %8.0f\n",
				v.Config.Protocol, v.Config.Kill, v.BaselineGbps, v.DipGbps,
				v.DipDepth*100, t90, v.JainPostRecovery, v.BlackholeDrops,
				float64(v.RetxBytes)/1e3)
		}
	}
}

// qos demonstrates the §8 future-work extension: class-level
// fairness via weighted fair rates on the bottleneck's RoCC CP.
func qos(fs *flag.FlagSet, _ string) func(*out) {
	dur, seed := bindDur(fs), bindSeed(fs)
	return func(o *out) {
		o.println("QoS extension: 6 flows, classes gold(w=1.0) / silver(w=0.5), B=40G")
		shares := experiments.RunQoS(dur(), *seed)
		o.println(plot.Bars("class shares", 40, "Gb/s", []plot.Bar{
			{Label: "gold", Value: shares[0]},
			{Label: "silver", Value: shares[1]},
		}))
		if shares[1] > 0 {
			o.printf("ratio %.2f (ideal 2.0)\n", shares[0]/shares[1])
		} else {
			o.println("ratio undefined: silver moved no bytes (ideal 2.0)")
		}
	}
}

// runTable1 prints the paper's qualitative comparison of congestion
// control solutions (Table 1), with the packages implementing each row.
func runTable1(o *out) {
	o.println("Table 1: comparison of selected congestion control solutions")
	o.printf("  %-9s %-34s %-44s %-26s %s\n", "solution", "switch action", "source action", "destination action", "package")
	rows := [][5]string{
		{"DCTCP", "mark ECN", "adjust congestion window based on ECN", "echo ECN", "internal/dctcp"},
		{"QCN", "compute and send Fb to source", "compute rate based on Fb", "none", "internal/qcn"},
		{"DCQCN", "mark ECN", "compute rate based on CNP", "send CNP to source", "internal/dcqcn"},
		{"TIMELY", "none", "send RTT probes, compute rate from RTT", "echo RTT probes", "internal/timely"},
		{"HPCC", "inject INT", "adjust sending window based on INT", "echo INT", "internal/hpcc"},
		{"RoCC", "compute and send rate to source", "use minimum rate received from switches", "none", "internal/core"},
	}
	for _, r := range rows {
		o.printf("  %-9s %-34s %-44s %-26s %s\n", r[0], r[1], r[2], r[3], r[4])
	}
}
