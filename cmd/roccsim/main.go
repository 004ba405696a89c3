// Command roccsim regenerates the tables and figures of the RoCC paper's
// evaluation (§6 and App. A) on the packet-level simulator.
//
// Usage:
//
//	roccsim [flags] [experiment]
//
// Experiments: fig5 fig6 fig7a fig7b fig8 fig9 fig11 fig12a fig12b fig13
// fig14 fig15 fig16 table3 fig17 fig18 fig19 fig20 qos table1 faults
// recovery rollout collective rogue soak scale all (default fig8)
//
// Flags:
//
//	-dur       duration of timed experiments (default per experiment)
//	-seed      RNG seed (default 1)
//	-load      average load level for §6.3 runs (default 0.7)
//	-reps      repetitions per experiment cell (default 1; the paper uses 5);
//	           rep r runs with seed+r, results merged as mean ± 95% CI
//	-workers   parallel workers for repetition fan-out (default 0 = GOMAXPROCS);
//	           results are merged in repetition order, so -workers never
//	           changes the output, only the wall time
//	-plot      render queue/rate series as ASCII charts (fig8, fig9, fig13)
//	-csv       directory to write raw series/bin CSVs into
//	-protocol  protocol under test for fig8/fig9 (rocc, dcqcn, dcqcn+pi,
//	           hpcc, timely, qcn, dctcp); comparison figures sweep their
//	           own protocol sets and ignore this
//	-trace     write a Chrome trace-event JSON of the run's flight
//	           recorder to this file (load in chrome://tracing or Perfetto)
//	-metrics   print the telemetry registry snapshot after the run; with
//	           -csv also writes metrics.csv
//	-cpuprofile  write a CPU profile of the run (go tool pprof)
//	-memprofile  write an allocation profile taken after the run
//	-cnp-loss  faults: CNP loss probability (-1 = sweep 5/10/20%)
//	-link-flap faults: link-flap period (0 = default 5 ms, down 10% of it)
//	-mix       rollout: protocol mix for a single run, e.g.
//	           rocc:0.5,dcqcn:0.5 (empty = RoCC-fraction sweep)
//	-pattern   collective: ring|tree|alltoall|ps (default ring)
//	-ranks     collective: participant count (default 8)
//	-msg       collective: message bytes per participant (default 1 MiB)
//	-chunks    collective: pipeline chunks per message (default 2)
//	-iters     collective: iterations (default 4)
//	-coll-mode collective: run one operating mode instead of sweeping
//	           hybrid/pfconly/cconly
//	-kill      collective: none|link (kill an uplink mid-run and restore)
//	-rogue-kind rogue: rogue behaviour (cnpdeaf|ecnblind|blast; default
//	           cnpdeaf, adapted to each protocol's feedback channel)
//	-count     soak: number of scenarios (0 = until -budget, or 100)
//	-budget    soak: wall-clock budget for the campaign (0 = unlimited)
//	-soak-out  soak: directory for minimized repros (config JSON + trace)
//	-shrink    soak: delta-debug failing scenarios (default true)
//	-fault-scale soak: fault intensity (1 = default mix, 0 = clean)
//	-mix-prob  soak: probability a scenario mixes two protocols (default 0.25)
//	-mode-prob soak: probability a scenario runs in a non-default operating
//	           mode (PFC-only or CC-only lossy; default 0.25)
//	-rogue-prob soak: probability a scenario hosts rogue senders policed
//	           by switch-side defenses (default 0)
//	-shards    engine shards for fat-tree runs (N >= 1, default 1; every N
//	           produces identical output, so it only moves wall time)
//	-flows     scale: concurrent persistent flows (default 100000)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rocc/internal/experiments"
	"rocc/internal/export"
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
	repsFlag = flag.Int("reps", 1, "repetitions per experiment cell (paper: 5)")
	workFlag = flag.Int("workers", 0, "parallel workers for repetitions (0 = GOMAXPROCS)")
	plotFlag = flag.Bool("plot", false, "render ASCII charts for series-producing experiments")
	csvFlag  = flag.String("csv", "", "directory to write raw CSV outputs into")
	fanFlag  = flag.Int("fanin", 0, "synchronized incast fan-in for fig18/fig20 (0 = smooth Poisson; 30 = paper incast level)")
	cnpFlag  = flag.Float64("cnp-loss", -1, "faults: CNP loss probability (-1 = sweep 5/10/20%)")
	flapFlag = flag.Duration("link-flap", 0, "faults: link-flap period (0 = default 5ms, down 10% of it)")

	protoFlag   = flag.String("protocol", "rocc", "protocol under test for fig8/fig9 (rocc|dcqcn|dcqcn+pi|hpcc|timely|qcn|dctcp)")
	traceFlag   = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	metricsFlag = flag.Bool("metrics", false, "print the telemetry metrics snapshot after the run")

	cpuproFlag = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memproFlag = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
)

// proto is the -protocol flag resolved by main; runTel is the telemetry
// bundle experiments attach to when -trace or -metrics asks for one.
var (
	proto  experiments.Protocol
	runTel *experiments.RunTelemetry
)

// emitSeries optionally plots and/or exports sampled series.
func emitSeries(name string, series ...*stats.Series) {
	if *plotFlag {
		fmt.Println(plot.Line(name, 72, 12, series...))
	}
	if *csvFlag != "" {
		if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			return
		}
		f, err := os.Create(filepath.Join(*csvFlag, name+".csv"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			return
		}
		defer f.Close()
		if err := export.Series(f, series...); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
		}
	}
}

// emitBins optionally exports per-bin FCT statistics.
func emitBins(name, protocol string, bins []stats.BinStat) {
	if *csvFlag == "" {
		return
	}
	if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	path := filepath.Join(*csvFlag, name+"_"+protocol+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer f.Close()
	if err := export.Bins(f, protocol, bins); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
	}
}

func main() {
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: roccsim [flags] [fig5|fig6|fig7a|fig7b|fig8|fig9|fig11|fig12a|fig12b|fig13|fig14|fig15|fig16|table3|fig17|fig18|fig19|fig20|qos|table1|faults|recovery|rollout|collective|rogue|soak|scale|all]")
		os.Exit(2)
	}
	name := "fig8" // the canonical single-bottleneck experiment
	if flag.NArg() == 1 {
		name = flag.Arg(0)
	}
	var err error
	if proto, err = experiments.ParseProtocol(*protoFlag); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkShards(*shardsFlag); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceFlag != "" || *metricsFlag {
		runTel = experiments.NewRunTelemetry()
	}
	if *cpuproFlag != "" {
		f, err := os.Create(*cpuproFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memproFlag != "" {
		defer func() {
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
		}()
	}
	start := time.Now()
	if name == "all" {
		for _, n := range []string{"table1", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig11",
			"fig12a", "fig12b", "fig13", "fig14", "fig15", "fig16", "table3", "fig17", "fig18", "fig19", "fig20", "qos"} {
			run(n)
			fmt.Println()
		}
	} else {
		run(name)
	}
	emitTelemetry()
	fmt.Printf("\n(wall time %v)\n", time.Since(start).Round(time.Millisecond))
}

// emitTelemetry writes the -trace Chrome trace and the -metrics snapshot
// collected over the run. Experiments that don't attach the bundle (only
// fig8 and fig9 do) leave it empty; that still produces a valid, empty
// trace rather than an error.
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
			if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
				return
			}
			f, err := os.Create(filepath.Join(*csvFlag, "metrics.csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
				return
			}
			defer f.Close()
			if err := export.Metrics(f, snap); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
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

// reportErr prints a failed repetition (e.g. a captured panic) without
// aborting the rest of the sweep.
func reportErr(what string, rep int, err error) {
	fmt.Fprintf(os.Stderr, "%s rep %d failed: %v\n", what, rep, err)
}

func run(name string) {
	switch name {
	case "fig5":
		runFig5()
	case "fig6":
		runFig6()
	case "fig7a", "fig7b":
		runFig7(name)
	case "fig8":
		runFig8()
	case "fig9":
		runFig9()
	case "fig11":
		runFig11()
	case "fig12a":
		runFig12a()
	case "fig12b":
		runFig12b()
	case "fig13":
		runFig13()
	case "fig14", "fig15", "fig16":
		runFCTFigs(name)
	case "table3":
		runTable3()
	case "fig17":
		runFig17()
	case "fig18":
		runFold("fig18", experiments.Unlimited, workload.FBHadoop())
	case "fig20":
		runFold("fig20", experiments.Lossy, workload.FBHadoop())
	case "fig19":
		runFig19()
	case "qos":
		runQoS()
	case "table1":
		runTable1()
	case "faults":
		runFaultsExp()
	case "recovery":
		runRecoveryExp()
	case "rollout":
		runRollout()
	case "collective":
		runCollective()
	case "rogue":
		runRogueExp()
	case "soak":
		runSoak()
	case "scale":
		runScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		os.Exit(2)
	}
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
	reps := repCount()
	// Flatten the (B, N, rep) grid into one harness fan-out; results come
	// back slotted by cell index, so the printed order never changes.
	type point struct {
		gbps float64
		n    int
	}
	// All cells aggregate counters into the shared registry; the flight
	// recorder rides on the first cell only, so the Chrome trace shows one
	// coherent run instead of interleaved virtual clocks.
	var regOnly *experiments.RunTelemetry
	if runTel != nil {
		regOnly = &experiments.RunTelemetry{Registry: runTel.Registry}
	}
	var points []point
	var cfgs []experiments.Fig8Config
	for _, gbps := range []float64{40, 100} {
		for _, n := range []int{2, 10, 100} {
			points = append(points, point{gbps, n})
			for rep := 0; rep < reps; rep++ {
				tel := regOnly
				if len(cfgs) == 0 {
					tel = runTel
				}
				cfgs = append(cfgs, experiments.Fig8Config{
					N: n, Gbps: gbps, Duration: dur(20 * sim.Millisecond), Seed: *seedFlag + int64(rep),
					Protocol: proto, Telemetry: tel,
				})
			}
		}
	}
	rs := experiments.RunFig8Grid(cfgs, *workFlag)
	for i, pt := range points {
		var runs []experiments.Fig8Result
		for rep := 0; rep < reps; rep++ {
			r := rs[i*reps+rep]
			if r.Err != nil {
				reportErr(fmt.Sprintf("fig8 B=%.0fG N=%d", pt.gbps, pt.n), rep, r.Err)
				continue
			}
			runs = append(runs, r.Value)
		}
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
			label, ideal = "tput", pt.gbps
		}
		fmt.Printf("  B=%3.0fG N=%-3d queue=%6.0f KB (ref %s)  %s=%7.2f Gb/s (ideal %.2f)  conv=%.1f ms  pfc=%d\n",
			pt.gbps, pt.n, queKB/nr, map[float64]string{40: "150", 100: "300"}[pt.gbps],
			label, rate/nr, ideal, conv/nr*1e3, int(pfc/nr))
		emitSeries(fmt.Sprintf("fig8_B%.0f_N%d", pt.gbps, pt.n),
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
	reps := repCount()
	protos := experiments.MicroProtocols()
	grid := experiments.RunFig11Grid(protos, experiments.Fig11Config{
		Duration: dur(40 * sim.Millisecond), Seed: *seedFlag,
	}, reps, *workFlag)
	for i, p := range protos {
		var rows []experiments.Fig11Row
		for _, r := range grid[i] {
			if r.Err != nil {
				reportErr("fig11 "+string(p), r.Index%reps, r.Err)
				continue
			}
			rows = append(rows, r.Value)
		}
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
	for _, p := range experiments.ComparisonProtocols() {
		r := experiments.RunFig12a(p, dur(40*sim.Millisecond), *seedFlag)
		fmt.Printf("  %-9s D0=%5.2f  D1..4=%5.2f %5.2f %5.2f %5.2f  D5=%5.2f\n",
			p, r.D[0], r.D[1], r.D[2], r.D[3], r.D[4], r.D[5])
	}
}

func runFig12b() {
	fmt.Println("Fig 12b: asymmetric-topology fairness (ideal: every flow 14.3 Gb/s)")
	for _, p := range experiments.ComparisonProtocols() {
		r := experiments.RunFig12b(p, dur(40*sim.Millisecond), *seedFlag)
		fmt.Printf("  %-9s slow(D0..D4)=%6.2f  fast(D5..D6)=%6.2f Gb/s\n", p, r.SlowAvg, r.FastAvg)
	}
}

func runFig13() {
	fmt.Println("Fig 13: testbed-twin simulation (3x10G; see cmd/rocclab for real sockets)")
	for _, sc := range []experiments.Fig13Scenario{experiments.Fig13Uniform, experiments.Fig13Mixed} {
		r := experiments.RunFig13Sim(sc, dur(100*sim.Millisecond), *seedFlag)
		want := "3.33"
		if sc == experiments.Fig13Mixed {
			want = "6.00"
		}
		fmt.Printf("  sim-%s: queue=%5.0f KB (ref 75)  fair=%5.2f Gb/s (ideal %s)\n",
			sc, r.SteadyQueKB, r.SteadyRate, want)
	}
}

func fctConfig(p experiments.Protocol, wl *workload.CDF, seed int64) experiments.FCTConfig {
	return experiments.FCTConfig{
		Protocol: p,
		Workload: wl,
		FatTree:  topology.PaperFatTree(),
		Load:     *loadFlag,
		Duration: dur(30 * sim.Millisecond),
		Seed:     seed,
		Shards:   *shardsFlag,
	}
}

func runFCTFigs(name string) {
	metric := map[string]string{"fig14": "average", "fig15": "90th percentile", "fig16": "99th percentile"}[name]
	reps := repCount()
	fmt.Printf("%s: %s FCT per flow-size bin (load %.0f%%)\n", name, metric, *loadFlag*100)
	for _, wl := range []*workload.CDF{workload.WebSearch(), workload.FBHadoop()} {
		fmt.Printf("-- %s traffic --\n", wl.Name())
		for _, p := range experiments.ComparisonProtocols() {
			rs := experiments.RunFCTReps(fctConfig(p, wl, *seedFlag), reps, *workFlag)
			var runs [][]stats.BinStat
			for _, r := range rs {
				if r.Err != nil {
					reportErr(name+" "+string(p), r.Index, r.Err)
					continue
				}
				runs = append(runs, r.Value.Bins)
			}
			bins, ci := experiments.MergeBins(runs)
			emitBins(name+"_"+wl.Name(), string(p), bins)
			fmt.Printf("  %-9s", p)
			for i, b := range bins {
				v := b.AvgMs
				switch name {
				case "fig15":
					v = b.P90Ms
				case "fig16":
					v = b.P99Ms
				}
				if reps > 1 {
					fmt.Printf(" %s:%.3f±%.3f", sizeLabel(b.UpperBytes), v, ci[i])
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
	for _, p := range experiments.ComparisonProtocols() {
		rs := experiments.RunFCTReps(fctConfig(p, workload.FBHadoop(), *seedFlag), reps, *workFlag)
		var means, stds []float64
		for _, r := range rs {
			if r.Err != nil {
				reportErr("table3 "+string(p), r.Index, r.Err)
				continue
			}
			row := experiments.Table3FromResult(r.Value)
			means = append(means, row.MeanMbps)
			stds = append(stds, row.StdMbps)
		}
		if len(means) == 0 {
			continue
		}
		fmt.Printf("  %-9s %14.2f %16.2f\n", p, stats.Mean(means), stats.Mean(stds))
	}
}

func runFig17() {
	fmt.Printf("Fig 17: average queue size and PFC activation per CP tier (WebSearch, load %.0f%%)\n", *loadFlag*100)
	fmt.Printf("  %-9s %26s %26s\n", "protocol", "avg queue KB (core/in/out)", "PFC frames (core/in/out)")
	reps := repCount()
	for _, p := range experiments.ComparisonProtocols() {
		rs := experiments.RunFCTReps(fctConfig(p, workload.WebSearch(), *seedFlag), reps, *workFlag)
		var tiers [3]experiments.TierStats
		n := 0
		for _, r := range rs {
			if r.Err != nil {
				reportErr("fig17 "+string(p), r.Index, r.Err)
				continue
			}
			n++
			for t, src := range []experiments.TierStats{r.Value.Core, r.Value.IngressEdge, r.Value.EgressEdge} {
				tiers[t].AvgQueueKB += src.AvgQueueKB
				tiers[t].PFCFrames += src.PFCFrames
			}
		}
		if n == 0 {
			continue
		}
		fmt.Printf("  %-9s %8.0f /%6.0f /%6.0f %10d /%6d /%6d\n",
			p, tiers[0].AvgQueueKB/float64(n), tiers[1].AvgQueueKB/float64(n), tiers[2].AvgQueueKB/float64(n),
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
	for _, p := range experiments.ComparisonProtocols() {
		cfg := fctConfig(p, wl, *seedFlag)
		cfg.IncastFanIn = *fanFlag // -fanin 30 reproduces the paper's incast level; see EXPERIMENTS.md
		rs := experiments.RunFoldReps(cfg, mode, reps, *workFlag)
		var runs []experiments.FoldResult
		for _, r := range rs {
			if r.Err != nil {
				reportErr(name+" "+string(p), r.Index, r.Err)
				continue
			}
			runs = append(runs, r.Value)
		}
		if len(runs) == 0 {
			continue
		}
		rows, ci, retxShare, bufferFold := experiments.MergeFolds(runs)
		fmt.Printf("  %-9s", p)
		for i, row := range rows {
			if row.Fold > 0 {
				if reps > 1 {
					fmt.Printf(" %s:%.1fx±%.1f", sizeLabel(row.UpperBytes), row.Fold, ci[i])
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

func runFig19() {
	fmt.Println("Fig 19 (App A.1): baseline verification ladder N: 1->4->1")
	for _, p := range []experiments.Protocol{experiments.ProtoDCQCN, experiments.ProtoHPCC} {
		r := experiments.RunFig19(p, dur(20*sim.Millisecond), *seedFlag)
		fmt.Printf("  %-9s\n", p)
		for i := range r.PhaseN {
			fmt.Printf("    N=%d rates: %s (ideal %.1f each)\n",
				r.PhaseN[i], experiments.FormatGbps(r.PhaseRates[i]), 40.0/float64(r.PhaseN[i]))
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
	rs := experiments.RunFaultsGrid(cells, *workFlag)
	var ref float64 // fault-free throughput, cells[0]
	fmt.Printf("  %-20s %16s %10s %7s %7s %6s %6s\n",
		"fault", "tput Gb/s", "queue KB", "jain", "stale", "rej", "lost")
	for i, r := range rs {
		if r.Err != nil {
			reportErr("faults "+cells[i].Label(), 0, r.Err)
			continue
		}
		v := r.Value
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
		cfg.HostsPerEdge, cfg.FailAt.Seconds()*1e3, cfg.RestoreAt.Seconds()*1e3,
		netsim.DefaultReconvergeDelay.Seconds()*1e6)
	cells := experiments.RecoveryCells(base)
	rs := experiments.RunRecoveryGrid(cells, *workFlag)
	fmt.Printf("  %-8s %-7s %10s %9s %7s %9s %6s %7s %8s\n",
		"protocol", "kill", "base Gb/s", "dip Gb/s", "depth", "t90 us", "jain", "blkhole", "retx KB")
	for i, r := range rs {
		if r.Err != nil {
			reportErr(fmt.Sprintf("recovery %s/%s", cells[i].Protocol, cells[i].Kill), 0, r.Err)
			continue
		}
		v := r.Value
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
