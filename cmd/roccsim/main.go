// Command roccsim regenerates the tables and figures of the RoCC paper's
// evaluation (§6 and App. A) on the packet-level simulator.
//
// Usage:
//
//	roccsim [flags] [experiment]
//
// `roccsim -h` lists the experiments (default fig8) and every flag with
// its default. The subcommands table below defines the experiments, and
// `all` runs the paper's tables and figures in its order. Output is
// seeded and deterministic: -workers and -shards move only wall time. A
// failed cell still lets every other row print, then makes roccsim exit
// 1; a flag value a run cannot honour, or a run-wide flag the experiment
// does not read, exits 2 before anything runs.
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
	"slices"
	"strings"
	"time"

	"rocc/internal/collective"
	"rocc/internal/experiments"
	"rocc/internal/export"
	"rocc/internal/harness"
	"rocc/internal/netsim"
	"rocc/internal/plot"
	"rocc/internal/qos"
	"rocc/internal/roccnet"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/telemetry"
	"rocc/internal/topology"
	"rocc/internal/workload"
)

var (
	durFlag  = flag.Duration("dur", 0, "duration of timed experiments (virtual time)")
	seedFlag = flag.Int64("seed", 1, "RNG seed")
	loadFlag = flag.Float64("load", 0.7, "average load level for §6.3 runs")
	repsFlag = flag.Int("reps", 1, "repetitions per experiment cell (paper: 5) for fig8, fig11, fig14-18, fig20 and table3; rep r runs with -seed+r, results merged as mean ± 95% CI")
	workFlag = flag.Int("workers", 0, "parallel workers for the cells of every multi-cell table (0 = GOMAXPROCS); output is identical at any count")
	plotFlag = flag.Bool("plot", false, "render ASCII charts of the queue/rate series (fig8, fig9)")
	csvFlag  = flag.String("csv", "", "directory to write raw CSV outputs into (series, FCT bins, metrics; fluid writes fluid.csv)")
	fanFlag  = flag.Int("fanin", 0, "synchronized incast fan-in for fig18/fig20 (0 = smooth Poisson; 30 = paper incast level)")
	cnpFlag  = flag.Float64("cnp-loss", -1, "faults: CNP loss probability in [0, 1] (-1 = sweep 5/10/20%)")
	flapFlag = flag.Duration("link-flap", 0, "faults: link-flap period >= 0 (0 = default 5ms, down 10% of it)")

	protoFlag   = flag.String("protocol", "rocc", "protocol under test for fig8, fig9 and scale (rocc|dcqcn|dcqcn+pi|hpcc|timely|qcn|dctcp)")
	traceFlag   = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file, for chrome://tracing or ui.perfetto.dev (fig8, fig9, all)")
	metricsFlag = flag.Bool("metrics", false, "print the telemetry metrics snapshot after the run, and with -csv write metrics.csv (fig8, fig9, all)")

	cpuproFlag = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memproFlag = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
)

// proto is the -protocol flag resolved by main; runTel is the telemetry
// bundle experiments attach to when -trace or -metrics asks for one.
var (
	proto  experiments.Protocol
	runTel *experiments.RunTelemetry
)

// subcommand is one roccsim experiment.
type subcommand struct {
	name  string
	run   func()
	inAll bool     // run by `roccsim all`
	reads []string // the run-wide flags (runWideFlags) it reads
}

// runWideFlags configure a run in general, but each subcommand reads only
// some of them; setting one that the subcommand does not read is a usage
// error (checkRunFlags).
var runWideFlags = []string{"shards", "reps", "protocol", "trace", "metrics"}

// The run-wide flags of the §6.3 fat-tree tables.
var fctReads = []string{"reps", "shards"}

// subcommands defines every experiment once, in the order `all` runs
// those it includes; usage, dispatch, `all` and the flag check are
// derived from it.
var subcommands = []subcommand{
	{"table1", runTable1, true, nil},
	{"fig5", runFig5, true, nil},
	{"fig6", runFig6, true, nil},
	{"fig7a", func() { runFig7("fig7a") }, true, nil},
	{"fig7b", func() { runFig7("fig7b") }, true, nil},
	{"fig8", runFig8, true, []string{"reps", "protocol", "trace", "metrics"}},
	{"fig9", runFig9, true, []string{"protocol", "trace", "metrics"}},
	{"fig11", runFig11, true, []string{"reps"}},
	{"fig12a", runFig12a, true, nil},
	{"fig12b", runFig12b, true, nil},
	{"fig13", runFig13, true, nil},
	{"fig14", func() { runFCTFigs("fig14") }, true, fctReads},
	{"fig15", func() { runFCTFigs("fig15") }, true, fctReads},
	{"fig16", func() { runFCTFigs("fig16") }, true, fctReads},
	{"table3", runTable3, true, fctReads},
	{"fig17", runFig17, true, fctReads},
	{"fig18", func() { runFold("fig18", experiments.Unlimited, workload.FBHadoop()) }, true, fctReads},
	{"fig19", runFig19, true, nil},
	{"fig20", func() { runFold("fig20", experiments.Lossy, workload.FBHadoop()) }, true, fctReads},
	{"qos", runQoS, true, nil},
	{"faults", runFaultsExp, false, nil},
	{"recovery", runRecoveryExp, false, nil},
	{"rollout", runRollout, false, nil},
	{"collective", runCollective, false, nil},
	{"rogue", runRogueExp, false, nil},
	{"soak", runSoak, false, []string{"shards"}},
	{"scale", runScale, false, []string{"protocol"}},
	{"fluid", runFluid, false, nil},
}

// lookup returns the run function of the named experiment, or nil. all
// runs every subcommand marked inAll, a blank line after each.
func lookup(name string) func() {
	if name == "all" {
		return func() {
			for _, sc := range subcommands {
				if sc.inAll {
					sc.run()
					fmt.Println()
				}
			}
		}
	}
	for _, sc := range subcommands {
		if sc.name == name {
			return sc.run
		}
	}
	return nil
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprint(out, "usage: roccsim [flags] [experiment]\nexperiments (default fig8):")
	for _, sc := range subcommands {
		fmt.Fprint(out, " ", sc.name)
	}
	fmt.Fprintln(out, " all\nflags:")
	flag.PrintDefaults()
}

// writeCSV creates name in the -csv directory and fills it; a failure is
// reported on stderr and the run goes on.
func writeCSV(name string, fill func(io.Writer) error) {
	if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	f, err := os.Create(filepath.Join(*csvFlag, name))
	if err == nil {
		err = fill(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
	}
}

// emitSeries optionally plots and/or exports sampled series.
func emitSeries(name string, series ...*stats.Series) {
	if *plotFlag {
		fmt.Println(plot.Line(name, 72, 12, series...))
	}
	if *csvFlag != "" {
		writeCSV(name+".csv", func(w io.Writer) error { return export.Series(w, series...) })
	}
}

// emitBins optionally exports per-bin FCT statistics.
func emitBins(name, protocol string, bins []stats.BinStat) {
	if *csvFlag != "" {
		writeCSV(name+"_"+protocol+".csv", func(w io.Writer) error { return export.Bins(w, protocol, bins) })
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	name := "fig8" // the canonical single-bottleneck experiment
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	run := lookup(name)
	if run == nil || flag.NArg() > 1 {
		fmt.Fprintf(os.Stderr, "roccsim: want one known experiment, got %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	var protoErr error
	proto, protoErr = experiments.ParseProtocol(*protoFlag)
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, err := range []error{
		protoErr,
		checkShards(*shardsFlag),
		checkRunFlags(name, set),
		checkFaultFlags(*cnpFlag, *flapFlag, *killFlag),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *traceFlag != "" || *metricsFlag {
		runTel = experiments.NewRunTelemetry()
	}
	stopProfiles := startProfiles()
	start := time.Now()
	run()
	emitTelemetry()
	fmt.Printf("\n(wall time %v)\n", time.Since(start).Round(time.Millisecond))
	stopProfiles()
	if failed {
		os.Exit(1)
	}
}

// checkFaultFlags rejects -cnp-loss, -link-flap and -kill values that the
// faults and collective runs would otherwise panic on or silently ignore.
func checkFaultFlags(cnpLoss float64, flap time.Duration, kill string) error {
	if cnpLoss != -1 && !(cnpLoss >= 0 && cnpLoss <= 1) {
		return fmt.Errorf("-cnp-loss %g: want a probability in [0, 1], or -1 for the sweep", cnpLoss)
	}
	if flap < 0 {
		return fmt.Errorf("-link-flap %v: want a period >= 0 (0 = the default 5ms)", flap)
	}
	if kill != collective.KillNone && kill != collective.KillLink {
		return fmt.Errorf("-kill %q: want %s or %s", kill, collective.KillNone, collective.KillLink)
	}
	return nil
}

// startProfiles starts the -cpuprofile recording and returns the function
// that stops it and writes the -memprofile.
func startProfiles() (stop func()) {
	var cpu *os.File
	if *cpuproFlag != "" {
		f, err := os.Create(*cpuproFlag)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if *memproFlag == "" {
			return
		}
		f, err := os.Create(*memproFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle live objects so the heap profile shows retention, not garbage
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}
}

// checkRunFlags rejects a run-wide flag, set on the command line, that
// the named subcommand does not read: the run would print exactly what it
// prints without the flag. all reads what the subcommands it runs read.
func checkRunFlags(name string, set []string) error {
	reads := map[string]bool{}
	for _, sc := range subcommands {
		if sc.name == name || name == "all" && sc.inAll {
			for _, f := range sc.reads {
				reads[f] = true
			}
		}
	}
	for _, f := range set {
		if !slices.Contains(runWideFlags, f) || reads[f] {
			continue
		}
		var by []string
		for _, sc := range subcommands {
			if slices.Contains(sc.reads, f) {
				by = append(by, sc.name)
			}
		}
		return fmt.Errorf("-%s: %s does not read it (only %s and all do)", f, name, strings.Join(by, ", "))
	}
	return nil
}

// emitTelemetry writes the -trace Chrome trace and the -metrics snapshot
// collected over the run.
func emitTelemetry() {
	if runTel == nil {
		return
	}
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
		} else {
			events := runTel.Events()
			if err := telemetry.WriteChromeTrace(f, events); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			} else {
				fmt.Printf("\nwrote %d trace events to %s (load in chrome://tracing or ui.perfetto.dev)\n",
					len(events), *traceFlag)
			}
			f.Close()
		}
	}
	if *metricsFlag {
		snap := runTel.Snapshot()
		fmt.Println("\nmetrics snapshot:")
		if err := snap.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		}
		if *csvFlag != "" {
			writeCSV("metrics.csv", func(w io.Writer) error { return export.Metrics(w, snap) })
		}
	}
}

func dur(def sim.Time) sim.Time {
	if *durFlag > 0 {
		return sim.Time(durFlag.Nanoseconds())
	}
	return def
}

// repCount is -reps, at least one.
func repCount() int {
	if *repsFlag < 1 {
		return 1
	}
	return *repsFlag
}

// repCells expands each cell into -reps repetitions, cell-major:
// repetition r of cells[i] lands at i*reps+r and runs with seed -seed+r.
// This is the one place a repetition's seed is derived.
func repCells[C any](cells []C, seed func(*C) *int64) []C {
	reps := repCount()
	out := make([]C, 0, len(cells)*reps)
	for _, c := range cells {
		for r := 0; r < reps; r++ {
			*seed(&c) = *seedFlag + int64(r)
			out = append(out, c)
		}
	}
	return out
}

// failed records that some part of the run failed; main exits 1 once
// every table has printed.
var failed bool

// collect returns the values of a group of cell results — one table
// row's repetitions, or one single-run cell. It reports each failed cell
// (a captured panic) on stderr and marks the run failed, without
// aborting the sweep.
func collect[R any](what string, rs []harness.Result[R]) []R {
	var vals []R
	for rep, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s rep %d failed: %v\n", what, rep, r.Err)
			failed = true
			continue
		}
		vals = append(vals, r.Value)
	}
	return vals
}

func runFig5() {
	fmt.Println("Fig 5: phase margin (deg) over (alpha, beta); T=40us, N=2")
	points := experiments.RunFig5()
	fmt.Printf("%10s %10s %10s\n", "alpha", "beta", "margin")
	for _, p := range points {
		fmt.Printf("%10.4f %10.4f %10.1f\n", p.Alpha, p.Beta, p.MarginDeg)
	}
}

func runFig6() {
	fmt.Println("Fig 6: stability margin for N=2 vs N=10 (alpha=0.3, beta=3)")
	for _, r := range experiments.RunFig6() {
		fmt.Printf("  N=%-3.0f margin=%6.1f deg  crossover=%8.0f Hz\n", r.N, r.MarginDeg, r.CrossoverHz)
	}
}

func runFig7(which string) {
	rows := experiments.RunFig7()
	if which == "fig7a" {
		fmt.Println("Fig 7a: phase margin (deg) vs N for six alpha:beta pairs")
	} else {
		fmt.Println("Fig 7b: loop bandwidth (Hz) vs N for six alpha:beta pairs")
	}
	var lastPair [2]float64
	for _, r := range rows {
		if [2]float64{r.Pair.Alpha, r.Pair.Beta} != lastPair {
			lastPair = [2]float64{r.Pair.Alpha, r.Pair.Beta}
			fmt.Printf("pair alpha=%.4f beta=%.4f:\n", r.Pair.Alpha, r.Pair.Beta)
		}
		if which == "fig7a" {
			fmt.Printf("  N=%-4.0f margin=%7.1f\n", r.N, r.MarginDeg)
		} else {
			fmt.Printf("  N=%-4.0f bandwidth=%9.0f\n", r.N, r.BandwidthHz)
		}
	}
	fmt.Println("auto-tuned (alpha~=0.3, beta~=3):")
	for _, r := range experiments.RunAutoTune(0.3, 3) {
		fmt.Printf("  N=%-4.0f level=%-3d margin=%6.1f bandwidth=%9.0f\n", r.N, r.Level, r.MarginDeg, r.BandwidthHz)
	}
}

func runFig8() {
	fmt.Printf("Fig 8: fairness and stability as load increases (90%% offered load, %s)\n", proto)
	var cells []experiments.Fig8Config
	for _, gbps := range []float64{40, 100} {
		for _, n := range []int{2, 10, 100} {
			cells = append(cells, experiments.Fig8Config{
				N: n, Gbps: gbps, Duration: dur(20 * sim.Millisecond), Protocol: proto,
			})
		}
	}
	cells = repCells(cells, func(c *experiments.Fig8Config) *int64 { return &c.Seed })
	// All cells aggregate counters into the shared registry; the flight
	// recorder rides on the first cell only, so the Chrome trace shows one
	// coherent run instead of interleaved virtual clocks.
	if runTel != nil {
		regOnly := &experiments.RunTelemetry{Registry: runTel.Registry}
		for i := range cells {
			cells[i].Telemetry = regOnly
		}
		cells[0].Telemetry = runTel
	}
	rs := harness.Run(cells, *workFlag, experiments.RunFig8)
	reps := repCount()
	for i := 0; i < len(cells); i += reps {
		c := cells[i]
		runs := collect(fmt.Sprintf("fig8 B=%.0fG N=%d", c.Gbps, c.N), rs[i:i+reps])
		if len(runs) == 0 {
			continue
		}
		queKB, rate, conv, pfc := runs[0].SteadyQueKB, runs[0].SteadyRate, runs[0].ConvergedAt, float64(runs[0].PFCFrames)
		queues, rates := []*stats.Series{runs[0].Queue}, []*stats.Series{runs[0].FairRate}
		for _, r := range runs[1:] {
			queKB += r.SteadyQueKB
			rate += r.SteadyRate
			conv += r.ConvergedAt
			pfc += float64(r.PFCFrames)
			queues = append(queues, r.Queue)
			rates = append(rates, r.FairRate)
		}
		nr := float64(len(runs))
		// RoCC's rate series is the CP fair rate (ideal B/N); baselines
		// report aggregate bottleneck throughput (ideal B).
		label, ideal := "fair", runs[0].ExpectedRate
		if proto != experiments.ProtoRoCC {
			label, ideal = "tput", c.Gbps
		}
		fmt.Printf("  B=%3.0fG N=%-3d queue=%6.0f KB (ref %s)  %s=%7.2f Gb/s (ideal %.2f)  conv=%.1f ms  pfc=%d\n",
			c.Gbps, c.N, queKB/nr, map[float64]string{40: "150", 100: "300"}[c.Gbps],
			label, rate/nr, ideal, conv/nr*1e3, int(pfc/nr))
		emitSeries(fmt.Sprintf("fig8_B%.0f_N%d", c.Gbps, c.N),
			experiments.AverageSeries(queues...), experiments.AverageSeries(rates...))
	}
}

func runFig9() {
	fmt.Printf("Fig 9: convergence under exponential load increase/decrease (%s)\n", proto)
	phase := dur(10 * sim.Millisecond)
	r := experiments.RunFig9(experiments.Fig9Config{Phase: phase, Seed: *seedFlag, Protocol: proto, Telemetry: runTel})
	for i := range r.PhaseN {
		// Per-flow fair share, capped by the 36 Gb/s offered load.
		ideal := 40.0 / float64(r.PhaseN[i])
		if ideal > 36 {
			ideal = 36
		}
		fmt.Printf("  phase %2d: N=%-3d fair=%7.2f Gb/s (ideal %.2f)\n", i, r.PhaseN[i], r.PhaseRates[i], ideal)
	}
	fmt.Printf("  PFC frames: %d\n", r.PFCFrames)
	emitSeries("fig9", r.Queue, r.FairRate)
}

func runFig11() {
	fmt.Println("Fig 11: comparison on N=10, B=40G (fairness / stability / convergence)")
	fmt.Printf("  %-9s %22s %16s %8s %6s\n", "protocol", "per-flow rate (Gb/s)", "queue (KB)", "util", "Jain")
	type cell struct {
		p   experiments.Protocol
		cfg experiments.Fig11Config
	}
	var cells []cell
	for _, p := range experiments.MicroProtocols() {
		cells = append(cells, cell{p, experiments.Fig11Config{Duration: dur(40 * sim.Millisecond)}})
	}
	cells = repCells(cells, func(c *cell) *int64 { return &c.cfg.Seed })
	rs := harness.Run(cells, *workFlag, func(c cell) experiments.Fig11Row { return experiments.RunFig11(c.p, c.cfg) })
	reps := repCount()
	for i := 0; i < len(cells); i += reps {
		rows := collect("fig11 "+string(cells[i].p), rs[i:i+reps])
		if len(rows) == 0 {
			continue
		}
		row := averageFig11(rows)
		fmt.Printf("  %-9s %6.2f ± %-5.2f [%4.1f..%4.1f] %7.0f ± %-6.0f %6.2f %6.4f\n",
			row.Protocol, row.FlowRateMean, row.FlowRateStd, row.FlowRateMin, row.FlowRateMax,
			row.QueueMeanKB, row.QueueStdKB, row.Utilization, row.JainIndex)
	}
}

// averageFig11 merges repetition rows: scalar metrics are averaged, the
// rate envelope takes the min of mins and max of maxes. A single row is
// returned unchanged.
func averageFig11(rows []experiments.Fig11Row) experiments.Fig11Row {
	out := rows[0]
	for _, r := range rows[1:] {
		out.FlowRateMean += r.FlowRateMean
		out.FlowRateStd += r.FlowRateStd
		out.QueueMeanKB += r.QueueMeanKB
		out.QueueStdKB += r.QueueStdKB
		out.Utilization += r.Utilization
		out.JainIndex += r.JainIndex
		if r.FlowRateMin < out.FlowRateMin {
			out.FlowRateMin = r.FlowRateMin
		}
		if r.FlowRateMax > out.FlowRateMax {
			out.FlowRateMax = r.FlowRateMax
		}
	}
	n := float64(len(rows))
	out.FlowRateMean /= n
	out.FlowRateStd /= n
	out.QueueMeanKB /= n
	out.QueueStdKB /= n
	out.Utilization /= n
	out.JainIndex /= n
	return out
}

func runFig12a() {
	fmt.Println("Fig 12a: multi-bottleneck fairness (ideal: D0=D5=5, D1..D4=8.75 Gb/s)")
	protos := experiments.ComparisonProtocols()
	rs := harness.Run(protos, *workFlag, func(p experiments.Protocol) experiments.Fig12aRow {
		return experiments.RunFig12a(p, dur(40*sim.Millisecond), *seedFlag)
	})
	for i, p := range protos {
		for _, r := range collect("fig12a "+string(p), rs[i:i+1]) {
			fmt.Printf("  %-9s D0=%5.2f  D1..4=%5.2f %5.2f %5.2f %5.2f  D5=%5.2f\n",
				p, r.D[0], r.D[1], r.D[2], r.D[3], r.D[4], r.D[5])
		}
	}
}

func runFig12b() {
	fmt.Println("Fig 12b: asymmetric-topology fairness (ideal: every flow 14.3 Gb/s)")
	protos := experiments.ComparisonProtocols()
	rs := harness.Run(protos, *workFlag, func(p experiments.Protocol) experiments.Fig12bRow {
		return experiments.RunFig12b(p, dur(40*sim.Millisecond), *seedFlag)
	})
	for i, p := range protos {
		for _, r := range collect("fig12b "+string(p), rs[i:i+1]) {
			fmt.Printf("  %-9s slow(D0..D4)=%6.2f  fast(D5..D6)=%6.2f Gb/s\n", p, r.SlowAvg, r.FastAvg)
		}
	}
}

func runFig13() {
	fmt.Println("Fig 13: testbed-twin simulation (3x10G; see cmd/rocclab for real sockets)")
	scenarios := []experiments.Fig13Scenario{experiments.Fig13Uniform, experiments.Fig13Mixed}
	rs := harness.Run(scenarios, *workFlag, func(sc experiments.Fig13Scenario) experiments.Fig13Result {
		return experiments.RunFig13Sim(sc, dur(100*sim.Millisecond), *seedFlag)
	})
	for i, sc := range scenarios {
		want := "3.33"
		if sc == experiments.Fig13Mixed {
			want = "6.00"
		}
		for _, r := range collect("fig13 sim-"+string(sc), rs[i:i+1]) {
			fmt.Printf("  sim-%s: queue=%5.0f KB (ref 75)  fair=%5.2f Gb/s (ideal %s)\n",
				sc, r.SteadyQueKB, r.SteadyRate, want)
		}
	}
}

// fctConfig is the §6.3 run of one protocol on one workload at -load
// and -shards; repCells sets its seed.
func fctConfig(p experiments.Protocol, wl *workload.CDF) experiments.FCTConfig {
	return experiments.FCTConfig{
		Protocol: p,
		Workload: wl,
		FatTree:  topology.PaperFatTree(),
		Load:     *loadFlag,
		Duration: dur(30 * sim.Millisecond),
		Shards:   *shardsFlag,
	}
}

// fctSeed is repCells' seed accessor for FCT cells.
func fctSeed(c *experiments.FCTConfig) *int64 { return &c.Seed }

// runFCTSweep runs every protocol of the comparison set on wl for -reps
// repetitions, returning the configurations and their results
// cell-major: protocol i's repetitions are rs[i*reps : (i+1)*reps].
func runFCTSweep(wl *workload.CDF) ([]experiments.FCTConfig, []harness.Result[experiments.FCTResult]) {
	var cfgs []experiments.FCTConfig
	for _, p := range experiments.ComparisonProtocols() {
		cfgs = append(cfgs, fctConfig(p, wl))
	}
	return cfgs, harness.Run(repCells(cfgs, fctSeed), *workFlag, experiments.RunFCT)
}

func runFCTFigs(name string) {
	metric := map[string]string{"fig14": "average", "fig15": "90th percentile", "fig16": "99th percentile"}[name]
	reps := repCount()
	fmt.Printf("%s: %s FCT per flow-size bin (load %.0f%%)\n", name, metric, *loadFlag*100)
	for _, wl := range []*workload.CDF{workload.WebSearch(), workload.FBHadoop()} {
		fmt.Printf("-- %s traffic --\n", wl.Name())
		cfgs, rs := runFCTSweep(wl)
		for i, cfg := range cfgs {
			p := cfg.Protocol
			var runs [][]stats.BinStat
			for _, r := range collect(name+" "+string(p), rs[i*reps:(i+1)*reps]) {
				runs = append(runs, r.Bins)
			}
			bins, ci := experiments.MergeBins(runs)
			emitBins(name+"_"+wl.Name(), string(p), bins)
			fmt.Printf("  %-9s", p)
			for k, b := range bins {
				v := b.AvgMs
				switch name {
				case "fig15":
					v = b.P90Ms
				case "fig16":
					v = b.P99Ms
				}
				if reps > 1 {
					fmt.Printf(" %s:%.3f±%.3f", sizeLabel(b.UpperBytes), v, ci[k])
				} else {
					fmt.Printf(" %s:%.3f", sizeLabel(b.UpperBytes), v)
				}
			}
			fmt.Println()
		}
	}
}

func runTable3() {
	fmt.Printf("Table 3: flow-level average rate allocation (FB_Hadoop, load %.0f%%)\n", *loadFlag*100)
	fmt.Printf("  %-9s %14s %16s\n", "protocol", "avg rate (Mb/s)", "std dev (Mb/s)")
	reps := repCount()
	cfgs, rs := runFCTSweep(workload.FBHadoop())
	for i, cfg := range cfgs {
		var means, stds []float64
		for _, r := range collect("table3 "+string(cfg.Protocol), rs[i*reps:(i+1)*reps]) {
			row := experiments.Table3FromResult(r)
			means = append(means, row.MeanMbps)
			stds = append(stds, row.StdMbps)
		}
		if len(means) == 0 {
			continue
		}
		fmt.Printf("  %-9s %14.2f %16.2f\n", cfg.Protocol, stats.Mean(means), stats.Mean(stds))
	}
}

func runFig17() {
	fmt.Printf("Fig 17: average queue size and PFC activation per CP tier (WebSearch, load %.0f%%)\n", *loadFlag*100)
	fmt.Printf("  %-9s %26s %26s\n", "protocol", "avg queue KB (core/in/out)", "PFC frames (core/in/out)")
	reps := repCount()
	cfgs, rs := runFCTSweep(workload.WebSearch())
	for i, cfg := range cfgs {
		runs := collect("fig17 "+string(cfg.Protocol), rs[i*reps:(i+1)*reps])
		if len(runs) == 0 {
			continue
		}
		var tiers [3]experiments.TierStats
		for _, r := range runs {
			for t, src := range []experiments.TierStats{r.Core, r.IngressEdge, r.EgressEdge} {
				tiers[t].AvgQueueKB += src.AvgQueueKB
				tiers[t].PFCFrames += src.PFCFrames
			}
		}
		n := len(runs)
		fmt.Printf("  %-9s %8.0f /%6.0f /%6.0f %10d /%6d /%6d\n",
			cfg.Protocol, tiers[0].AvgQueueKB/float64(n), tiers[1].AvgQueueKB/float64(n), tiers[2].AvgQueueKB/float64(n),
			tiers[0].PFCFrames/n, tiers[1].PFCFrames/n, tiers[2].PFCFrames/n)
	}
}

func runFold(name string, mode experiments.BufferMode, wl *workload.CDF) {
	label := "PFC disabled + unlimited buffer"
	if mode == experiments.Lossy {
		label = "lossy (buffer = 3x PFC threshold, go-back-N)"
	}
	fmt.Printf("%s: FCT fold increase under %s (%s, load %.0f%%, fan-in %d)\n", name, label, wl.Name(), *loadFlag*100, *fanFlag)
	reps := repCount()
	protos := experiments.ComparisonProtocols()
	var cfgs []experiments.FCTConfig
	for _, p := range protos {
		cfg := fctConfig(p, wl)
		cfg.IncastFanIn = *fanFlag // -fanin 30 reproduces the paper's incast level; see EXPERIMENTS.md
		cfgs = append(cfgs, cfg)
	}
	// Every repetition is a [lossless, variant] pair of cells.
	var cells []experiments.FCTConfig
	for _, c := range repCells(cfgs, fctSeed) {
		variant := c
		variant.Mode = mode
		cells = append(cells, c, variant)
	}
	rs := harness.Run(cells, *workFlag, experiments.RunFCT)
	for i, p := range protos {
		runs := collect(name+" "+string(p), foldPairs(rs[2*i*reps:2*(i+1)*reps]))
		if len(runs) == 0 {
			continue
		}
		rows, ci, retxShare, bufferFold := experiments.MergeFolds(runs)
		fmt.Printf("  %-9s", p)
		for k, row := range rows {
			if row.Fold > 0 {
				if reps > 1 {
					fmt.Printf(" %s:%.1fx±%.1f", sizeLabel(row.UpperBytes), row.Fold, ci[k])
				} else {
					fmt.Printf(" %s:%.1fx", sizeLabel(row.UpperBytes), row.Fold)
				}
			}
		}
		if mode == experiments.Lossy {
			fmt.Printf("  retx=%.1f%%", retxShare*100)
		} else {
			fmt.Printf("  buffer-fold=%.1fx", bufferFold)
		}
		fmt.Println()
	}
}

// foldPairs folds consecutive [lossless, variant] results into one
// result per repetition; a pair fails if either of its cells did.
func foldPairs(rs []harness.Result[experiments.FCTResult]) []harness.Result[experiments.FoldResult] {
	folds := make([]harness.Result[experiments.FoldResult], len(rs)/2)
	for r := range folds {
		base, variant := rs[2*r], rs[2*r+1]
		if folds[r].Err = errors.Join(base.Err, variant.Err); folds[r].Err == nil {
			folds[r].Value = experiments.MakeFold(base.Value, variant.Value)
		}
	}
	return folds
}

func runFig19() {
	fmt.Println("Fig 19 (App A.1): baseline verification ladder N: 1->4->1")
	protos := []experiments.Protocol{experiments.ProtoDCQCN, experiments.ProtoHPCC}
	rs := harness.Run(protos, *workFlag, func(p experiments.Protocol) experiments.Fig19Result {
		return experiments.RunFig19(p, dur(20*sim.Millisecond), *seedFlag)
	})
	for i, p := range protos {
		for _, r := range collect("fig19 "+string(p), rs[i:i+1]) {
			fmt.Printf("  %-9s\n", p)
			for k, n := range r.PhaseN {
				fmt.Printf("    N=%d rates: %s (ideal %.1f each)\n",
					n, experiments.FormatGbps(r.PhaseRates[k]), 40.0/float64(n))
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

// runFaultsExp sweeps the robustness scenario: RoCC on the N=10 star
// with CNP loss, CNP corruption, a flapping access link and a stalled CP
// timer, reporting degradation against the fault-free baseline.
func runFaultsExp() {
	fmt.Println("faults: RoCC robustness under lost/late/corrupt feedback (N=10, B=40G)")
	base := experiments.FaultsConfig{Duration: dur(20 * sim.Millisecond), Seed: *seedFlag}
	losses := []float64{0.05, 0.10, 0.20}
	if *cnpFlag >= 0 {
		losses = []float64{*cnpFlag}
	}
	cells := experiments.FaultsCells(base, losses, sim.Time(flapFlag.Nanoseconds()))
	rs := harness.Run(cells, *workFlag, experiments.RunFaults)
	var ref float64 // fault-free throughput, cells[0]
	fmt.Printf("  %-20s %16s %10s %7s %7s %6s %6s\n",
		"fault", "tput Gb/s", "queue KB", "jain", "stale", "rej", "lost")
	for i, c := range cells {
		for _, v := range collect("faults "+c.Label(), rs[i:i+1]) {
			if i == 0 {
				ref = v.ThroughputGbps
			}
			degr := ""
			if i > 0 && ref > 0 {
				degr = fmt.Sprintf("(%+.1f%%)", (v.ThroughputGbps/ref-1)*100)
			}
			lost := v.Faults.CNPsLost + v.Faults.CNPsStalled + v.Faults.Corrupted
			fmt.Printf("  %-20s %7.2f %8s %10.1f %7.4f %7d %6d %6d\n",
				v.Config.Label(), v.ThroughputGbps, degr, v.QueueMeanKB, v.Jain,
				v.StaleRecoveries, v.CNPsRejected, lost)
		}
	}
}

// runRecoveryExp sweeps every protocol through a hard core-link kill
// and a core-switch kill on the fat-tree, reporting goodput dip depth,
// time back to 90% of the pre-failure rate, and post-recovery fairness.
func runRecoveryExp() {
	base := experiments.RecoveryConfig{Seed: *seedFlag}
	if *durFlag > 0 {
		base.Duration = sim.Time(durFlag.Nanoseconds())
	}
	cfg := base.Filled()
	fmt.Printf("recovery: fat-tree 2x3x%d, fail %.1f ms -> restore %.1f ms (+%.0f us reconverge)\n",
		experiments.RecoveryHostsPerEdge, cfg.FailAt.Seconds()*1e3, cfg.RestoreAt.Seconds()*1e3,
		netsim.DefaultReconvergeDelay.Seconds()*1e6)
	cells := experiments.RecoveryCells(base)
	rs := harness.Run(cells, *workFlag, experiments.RunRecovery)
	fmt.Printf("  %-8s %-7s %10s %9s %7s %9s %6s %7s %8s\n",
		"protocol", "kill", "base Gb/s", "dip Gb/s", "depth", "t90 us", "jain", "blkhole", "retx KB")
	for i, c := range cells {
		for _, v := range collect(fmt.Sprintf("recovery %s/%s", c.Protocol, c.Kill), rs[i:i+1]) {
			t90 := "never"
			if v.T90 >= 0 {
				t90 = fmt.Sprintf("%.0f", v.T90.Seconds()*1e6)
			}
			fmt.Printf("  %-8s %-7s %10.2f %9.2f %6.1f%% %9s %6.3f %7d %8.0f\n",
				v.Config.Protocol, v.Config.Kill, v.BaselineGbps, v.DipGbps,
				v.DipDepth*100, t90, v.JainPostRecovery, v.BlackholeDrops,
				float64(v.RetxBytes)/1e3)
		}
	}
}

// runQoS demonstrates the §8 future-work extension: class-level
// fairness via weighted fair rates.
func runQoS() {
	fmt.Println("QoS extension: 6 flows, classes gold(w=1.0) / silver(w=0.5), B=40G")
	engine := sim.New()
	star := topology.BuildStar(engine, *seedFlag, 6, netsim.Gbps(40))
	classIdx := map[netsim.FlowID]int{}
	qos.Attach(star.Net, star.Switch, star.Bottleneck, qos.Options{
		Weights:  []float64{1, 0.5},
		Classify: func(f netsim.FlowID) int { return classIdx[f] },
	})
	var flows []*netsim.Flow
	for i, src := range star.Sources {
		f := star.Net.StartFlow(src, star.Dst, netsim.FlowConfig{
			Size: -1, MaxRate: netsim.Gbps(36),
			CC: roccnet.NewFlowCC(src, roccnet.RPOptions{}),
		})
		classIdx[f.ID] = i % 2
		flows = append(flows, f)
	}
	engine.RunUntil(dur(20 * sim.Millisecond))
	var shares [2]float64
	for _, f := range flows {
		shares[classIdx[f.ID]] += float64(f.DeliveredBytes()) * 8 / engine.Now().Seconds() / 1e9
	}
	fmt.Println(plot.Bars("class shares", 40, "Gb/s", []plot.Bar{
		{Label: "gold", Value: shares[0]},
		{Label: "silver", Value: shares[1]},
	}))
	fmt.Printf("ratio %.2f (ideal 2.0)\n", shares[0]/shares[1])
}

// runTable1 prints the paper's qualitative comparison of congestion
// control solutions (Table 1), with the packages implementing each row.
func runTable1() {
	fmt.Println("Table 1: comparison of selected congestion control solutions")
	fmt.Printf("  %-9s %-34s %-44s %-26s %s\n", "solution", "switch action", "source action", "destination action", "package")
	rows := [][5]string{
		{"DCTCP", "mark ECN", "adjust congestion window based on ECN", "echo ECN", "internal/dctcp"},
		{"QCN", "compute and send Fb to source", "compute rate based on Fb", "none", "internal/qcn"},
		{"DCQCN", "mark ECN", "compute rate based on CNP", "send CNP to source", "internal/dcqcn"},
		{"TIMELY", "none", "send RTT probes, compute rate from RTT", "echo RTT probes", "internal/timely"},
		{"HPCC", "inject INT", "adjust sending window based on INT", "echo INT", "internal/hpcc"},
		{"RoCC", "compute and send rate to source", "use minimum rate received from switches", "none", "internal/core"},
	}
	for _, r := range rows {
		fmt.Printf("  %-9s %-34s %-44s %-26s %s\n", r[0], r[1], r[2], r[3], r[4])
	}
}
