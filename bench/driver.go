package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"rocc/internal/stats"
)

// This file is the driver side: it launches each (workload, repetition)
// as a fresh child of its own binary, one at a time, and folds what the
// children report into medians, checks and attribution.

// launcher runs one child and returns its report. The real one execs the
// benchmark's own binary; tests substitute an in-process call.
type launcher func(ctx context.Context, a childArgs) childResult

// execLauncher returns the launcher that runs children as processes of
// the given executable.
func execLauncher(exe string) launcher {
	return func(ctx context.Context, a childArgs) childResult {
		args := []string{"-child", "-workload", a.Workload, "-seed", strconv.FormatInt(a.Seed, 10)}
		if a.Traced {
			args = append(args, "-traced", "-trace-out", a.TraceOut)
		}
		if a.Tiny {
			args = append(args, "-tiny")
		}
		if a.Plant {
			args = append(args, "-plant")
		}
		args = append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to end
		crashed := func(why string) childResult {
			return childResult{Workload: a.Workload, Seed: a.Seed, Traced: a.Traced, Ops: 1, Failed: 1,
				Failures: []string{why}, Metrics: map[string]float64{}, Outputs: map[string]float64{}}
		}
		if err != nil {
			return crashed(fmt.Sprintf("child %s: %v", a.Workload, err))
		}
		var res childResult
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return crashed(fmt.Sprintf("child %s: unreadable report: %v", a.Workload, err))
		}
		return res
	}
}

// runConfig is one set of runs.
type runConfig struct {
	Workloads []workloadSpec
	Seed      int64

	// Reps is the number of untraced repetitions per workload. With
	// Seconds > 0 the set instead repeats until that much time has passed,
	// but never fewer than Reps times.
	Reps    int
	Seconds float64

	Trace bool // one more traced repetition per workload, plus the probes
	Check bool // cross-check against the repository's own runners

	Tiny, Plant bool   // test hooks, passed to every child
	OutDir      string // where traced children write their Chrome traces
	Launch      launcher
	Log         io.Writer // progress lines
}

// set is everything one set of runs produced.
type set struct {
	cfg      runConfig
	untraced map[string][]childResult
	traced   map[string]childResult
	twins    map[string]childResult // 1-shard twins run only for their digest
	probes   *childResult
	check    *childResult
}

func (s *set) launch(ctx context.Context, workload string, traced bool) childResult {
	a := childArgs{Workload: workload, Seed: s.cfg.Seed, Traced: traced, Tiny: s.cfg.Tiny, Plant: s.cfg.Plant}
	if traced {
		a.TraceOut = filepath.Join(s.cfg.OutDir, fmt.Sprintf("trace_%s_seed%d.json", workload, s.cfg.Seed))
	}
	start := time.Now()
	res := s.cfg.Launch(ctx, a)
	mode := ""
	if traced {
		mode = " traced"
	}
	fmt.Fprintf(s.cfg.Log, "  %-16s%s %6.2fs  wall %.3fs  ops %d failed %d\n",
		workload, mode, time.Since(start).Seconds(), res.Metrics[mWall], res.Ops, res.Failed)
	return res
}

// runSet runs one set: repetition-major (repetition 1 of every workload,
// then repetition 2, ...) so slow machine drift spreads over all
// workloads instead of landing on one.
func runSet(ctx context.Context, cfg runConfig) *set {
	s := &set{cfg: cfg, untraced: map[string][]childResult{}, traced: map[string]childResult{}, twins: map[string]childResult{}}
	start := time.Now()
	for rep := 0; ctx.Err() == nil; rep++ {
		if rep >= cfg.Reps && time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
		for _, w := range cfg.Workloads {
			s.untraced[w.Name] = append(s.untraced[w.Name], s.launch(ctx, w.Name, false))
		}
	}
	for _, w := range cfg.Workloads {
		if _, have := s.untraced[w.Twin]; w.Twin != "" && !have {
			s.twins[w.Name] = s.launch(ctx, w.Twin, false)
		}
	}
	if cfg.Trace {
		for _, w := range cfg.Workloads {
			s.traced[w.Name] = s.launch(ctx, w.Name, true)
		}
		res := s.launch(ctx, wlProbes, false)
		s.probes = &res
	}
	if cfg.Check {
		res := s.launch(ctx, wlCheck, false)
		s.check = &res
	}
	return s
}

// --- report ---

// value is one reported number. N is the number of samples behind it; a
// per-layer metric a workload does not exercise has N = 0 and value 0.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(unit string, xs []float64) value {
	s := stats.Summarize(xs)
	return value{Value: s.P50, Unit: unit, Min: s.Min, Max: s.Max, N: s.Count}
}

// attrRow is one layer's share of the traced run.
type attrRow struct {
	Layer    string  `json:"layer"`
	SelfS    float64 `json:"self_s"`
	SharePct float64 `json:"share_pct"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest"`
	Outputs   map[string]float64 `json:"outputs"`
	Reference string             `json:"reference"`
	EndToEnd  map[string]value   `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`

	TracedWallS float64   `json:"traced_wall_s,omitempty"`
	Attribution []attrRow `json:"attribution,omitempty"`
	TraceFile   string    `json:"trace_file,omitempty"`
}

// sideReport is the outcome of a run that is not a workload: the probes
// or the cross-check.
type sideReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Outputs   map[string]float64 `json:"outputs,omitempty"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
	Sides     []sideReport     `json:"sides,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
}

func (r *workloadReport) fail(msg string) {
	r.Failed++
	r.Failures = append(r.Failures, msg)
}

func (r *workloadReport) absorb(c childResult) {
	r.Attempted += c.Ops
	r.Failed += c.Failed
	r.Failures = append(r.Failures, c.Failures...)
}

// report folds the set into per-workload medians, output checks and the
// traced attribution.
func (s *set) report(h header) *report {
	rep := &report{Header: h}
	for _, w := range s.cfg.Workloads {
		wr := s.workload(w)
		rep.Workloads = append(rep.Workloads, wr)
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
		for _, f := range wr.Failures {
			rep.Failures = append(rep.Failures, w.Name+": "+f)
		}
	}
	for _, c := range []*childResult{s.probes, s.check} {
		if c == nil {
			continue
		}
		rep.Sides = append(rep.Sides, sideReport{Name: c.Workload, Attempted: c.Ops, Failed: c.Failed, Outputs: c.Outputs})
		rep.Attempted += c.Ops
		rep.Failed += c.Failed
		for _, f := range c.Failures {
			rep.Failures = append(rep.Failures, c.Workload+": "+f)
		}
	}
	return rep
}

func (s *set) workload(w workloadSpec) workloadReport {
	un := s.untraced[w.Name]
	wr := workloadReport{
		Name: w.Name, Why: w.Why, Outputs: map[string]float64{},
		EndToEnd: map[string]value{}, Reference: "none: unvalidated, no error figure",
	}
	if w.Name == wlStar {
		wr.Reference = "RoCC cell against EXPERIMENTS.md 6.1 (queue at Qref, full link, equal shares); other protocols unvalidated"
	}
	all := append([]childResult(nil), un...)
	traced, haveTraced := s.traced[w.Name]
	if haveTraced {
		all = append(all, traced)
		wr.TraceFile = traced.TraceFile
	}
	for _, c := range all {
		wr.absorb(c)
	}
	if len(un) == 0 {
		wr.fail("no repetition ran")
		return wr
	}
	first := un[0]
	wr.Digest, wr.Outputs = first.Digest, first.Outputs

	// Output checks: a fixed seed gives the same simulated outputs on
	// every repetition, traced or not, at any shard count.
	for i, c := range all[1:] {
		if c.Digest != first.Digest {
			wr.fail(fmt.Sprintf("digest %s of run %d differs from %s of run 0 (traced: %v)", c.Digest, i+1, first.Digest, c.Traced))
		}
	}
	if w.Twin != "" {
		twin, extra := s.twins[w.Name]
		if extra {
			wr.absorb(twin)
		} else if reps := s.untraced[w.Twin]; len(reps) > 0 {
			twin = reps[0]
		}
		if twin.Digest != first.Digest {
			wr.fail(fmt.Sprintf("digest %s differs from 1-shard twin %s's %s", first.Digest, w.Twin, twin.Digest))
		}
	}

	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = summarize(m.Unit, collect(un, m.Name))
	}
	if !s.cfg.Trace {
		return wr
	}

	wall := wr.EndToEnd[mWall].Value
	wr.PerLayer = map[string]value{}
	for _, m := range perLayer {
		v := value{Unit: m.Unit}
		switch m.Src {
		case srcTimed:
			v = summarize(m.Unit, collect(un, m.Name))
		case srcExact:
			xs := collect(all, m.Name)
			for _, x := range xs {
				if x != xs[0] {
					wr.fail(fmt.Sprintf("exact count %s differs between runs: %v", m.Name, xs))
					break
				}
			}
			v = summarize(m.Unit, xs)
		case srcProbe:
			if x, ok := s.probes.Metrics[m.Name]; ok {
				v = value{Value: x, Unit: m.Unit, Min: x, Max: x, N: 1}
			}
		}
		wr.PerLayer[m.Name] = v
	}
	put := func(name string, x float64, n int) {
		if old, named := wr.PerLayer[name]; named {
			wr.PerLayer[name] = value{Value: x, Unit: old.Unit, Min: x, Max: x, N: n}
		}
	}
	if events := first.Metrics["sim.events"]; events > 0 && wall > 0 {
		put("sim.ns_per_event", wall*1e9/events, len(un))
		put("sim.events_per_s", events/wall, len(un))
	}
	if w.Name == wlSoak {
		soakCells(un, put)
	}
	if haveTraced {
		s.attribute(&wr, traced, wall, put)
	}
	return wr
}

// collect gathers one metric from the children that report it.
func collect(cs []childResult, name string) []float64 {
	var xs []float64
	for _, c := range cs {
		if x, ok := c.Metrics[name]; ok {
			xs = append(xs, x)
		}
	}
	return xs
}

// soakCells pools the per-scenario times of every repetition.
func soakCells(un []childResult, put func(string, float64, int)) {
	var all []float64
	byKind := map[string][]float64{}
	for _, c := range un {
		for _, cell := range c.Cells {
			ms := cell.WallS * 1e3
			all = append(all, ms)
			byKind[cell.Kind] = append(byKind[cell.Kind], ms)
		}
	}
	if len(all) == 0 {
		return
	}
	sum := stats.Summarize(all)
	put("chaos.run_ms_p50", sum.P50, sum.Count)
	put("chaos.run_ms_p99", sum.P99, sum.Count)
	for kind, ms := range byKind {
		put("chaos.run_ms_"+kind, stats.Percentile(ms, 50), len(ms))
	}
}

// attribute splits the traced run's wall time over the layers. Inside a
// run cell the wrappers kept (calls, sampled time) per layer method; the
// rest of the cell, less what the wrappers themselves cost, is the event
// engine and the packet path. Time in the run span outside any cell is
// unattributed.
func (s *set) attribute(wr *workloadReport, traced childResult, wall float64, put func(string, float64, int)) {
	tw := traced.Metrics[mWall]
	wr.TracedWallS = tw
	if wall > 0 {
		put("trace.overhead_pct", (tw-wall)/wall*100, 1)
	}
	if tw <= 0 {
		return
	}
	overheadNs := s.probes.Metrics["trace.span_overhead_ns"]
	if overheadNs < 0 {
		overheadNs = 0
	}
	inside := traced.CellsS
	row := func(layer string, self float64) {
		wr.Attribution = append(wr.Attribution, attrRow{Layer: layer, SelfS: self, SharePct: self / tw * 100})
	}
	layers := make([]string, 0, len(traced.Layers))
	for name := range traced.Layers {
		layers = append(layers, name)
	}
	sort.Strings(layers)
	calls := uint64(0)
	for _, name := range layers {
		st := traced.Layers[name]
		self := st.totalS()
		row(name, self)
		inside -= self
		calls += st.calls()
		for method, c := range map[string]callStats{"ack_ns": st.Ack, "cnp_ns": st.CNP, "allow_ns": st.Allow, "portcc_ns": st.PortCC} {
			put(name+"."+method, c.meanNs(), int(c.Sampled))
		}
	}
	if calls > 0 {
		self := float64(calls) * overheadNs / 1e9
		row("trace", self)
		inside -= self
	}
	if wr.Name == wlSoak {
		row("chaos", inside)
	} else {
		row("sim+netsim", inside)
	}
	row("experiments", traced.Metrics["experiments.fold_ms"]/1e3)
	unattributed := traced.RunS - traced.CellsS
	row("unattributed", unattributed)
	put("trace.unattributed_pct", unattributed/tw*100, 1)
}
