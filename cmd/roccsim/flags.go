package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"strconv"
	"time"

	"rocc/internal/experiments"
	"rocc/internal/sim"
)

// option is a flag's variable and the parser that range-checks it, so a
// value no run can honour is a usage error where the flag is declared.
type option[T any] struct {
	v     T
	parse func(string) (T, error)
}

func (o *option[T]) String() string { return fmt.Sprint(o.v) }

func (o *option[T]) Set(s string) (err error) { o.v, err = o.parse(s); return err }

// IsBoolFlag lets a bool flag be set by its name alone (-plot).
func (o *option[T]) IsBoolFlag() bool { _, ok := any(o.v).(bool); return ok }

// define registers a flag on fs and returns its variable. When fs already
// holds the flag, because two experiments `all` runs read it, it returns
// the variable registered first, so both read one value.
func define[T any](fs *flag.FlagSet, name string, def T, usage string, parse func(string) (T, error)) *T {
	if f := fs.Lookup(name); f != nil {
		return &f.Value.(*option[T]).v
	}
	o := &option[T]{def, parse}
	fs.Var(o, name, usage)
	return &o.v
}

// check wraps parse to refuse a value ok rejects; want says what is valid.
func check[T any](parse func(string) (T, error), ok func(T) bool, want string) func(string) (T, error) {
	return func(s string) (T, error) {
		v, err := parse(s)
		if err == nil && !ok(v) {
			err = errors.New("want " + want)
		}
		return v, err
	}
}

// atLeast accepts values >= min, which NaN is not.
func atLeast[T cmp.Ordered](min T) func(T) bool { return func(v T) bool { return v >= min } }

func isProb(p float64) bool { return p >= 0 && p <= 1 }

func parseInt(s string) (int, error) {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize)
	return int(v), err
}

func parseInt64(s string) (int64, error)   { return strconv.ParseInt(s, 0, 64) }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func parseString(s string) (string, error) { return s, nil }
func parseNonNeg(s string) (int, error)    { return check(parseInt, atLeast(0), "a value >= 0")(s) }
func parsePositive(s string) (int, error)  { return check(parseInt, atLeast(1), "a value >= 1")(s) }
func parseSpan(s string) (time.Duration, error) {
	return check(time.ParseDuration, atLeast[time.Duration](0), "a duration >= 0")(s)
}

// The flags several experiments read, each with one default and usage.

func bindSeed(fs *flag.FlagSet) *int64 { return define(fs, "seed", int64(1), "RNG `seed`", parseInt64) }

func bindCSV(fs *flag.FlagSet) *string {
	return define(fs, "csv", "", "`dir`ectory to write raw CSV outputs into", parseString)
}

func bindWorkers(fs *flag.FlagSet) *int {
	return define(fs, "workers", 0, "`count` of parallel workers for the cells of a table (0 = GOMAXPROCS); output is identical at any count", parseNonNeg)
}

func bindReps(fs *flag.FlagSet) *int {
	return define(fs, "reps", 1, "`count` of repetitions per cell (paper: 5); rep r runs with -seed+r, results merged as mean ± 95% CI", parsePositive)
}

func bindShards(fs *flag.FlagSet) *int {
	return define(fs, "shards", 1, "`count` of engine shards for fat-tree runs; output is byte-identical for every count >= 1", parsePositive)
}

func bindProtocol(fs *flag.FlagSet) *experiments.Protocol {
	return define(fs, "protocol", experiments.ProtoRoCC, "`protocol` under test (rocc|dcqcn|dcqcn+pi|hpcc|timely|qcn|dctcp)", experiments.ParseProtocol)
}

// bindDur binds -dur: the returned function gives the run's virtual
// duration, 0 when the experiment's own default applies.
func bindDur(fs *flag.FlagSet) func() sim.Time {
	d := define(fs, "dur", time.Duration(0), "`duration` of timed experiments (virtual time; 0 = each experiment's default)", parseSpan)
	return func() sim.Time { return sim.Time(*d) }
}

// sweep is what a multi-cell table reads.
type sweep struct {
	dur     func() sim.Time
	seed    *int64
	workers *int
}

func bindSweep(fs *flag.FlagSet) sweep { return sweep{bindDur(fs), bindSeed(fs), bindWorkers(fs)} }

// seriesOpts is what fig8 and fig9 read beside their cells: -protocol,
// and the outputs of their sampled series and telemetry.
type seriesOpts struct {
	proto         *experiments.Protocol
	plot, metrics *bool
	csv, trace    *string
}

func bindSeries(fs *flag.FlagSet) seriesOpts {
	return seriesOpts{
		bindProtocol(fs),
		define(fs, "plot", false, "render ASCII charts of the queue/rate series", strconv.ParseBool),
		define(fs, "metrics", false, "print the telemetry metrics snapshot after the run (with -csv, also metrics.csv)", strconv.ParseBool),
		bindCSV(fs),
		define(fs, "trace", "", "write a Chrome trace-event JSON of the run to this `file`, for ui.perfetto.dev", parseString),
	}
}

// fctOpts is what every §6.3 fat-tree table reads.
type fctOpts struct {
	sweep
	reps, shards *int
	load         *float64
}

func bindFCT(fs *flag.FlagSet) fctOpts {
	return fctOpts{bindSweep(fs), bindReps(fs), bindShards(fs), define(fs, "load", experiments.DefaultLoad, "average `load` level for §6.3 runs, in (0, 1]",
		check(parseFloat, func(l float64) bool { return l > 0 && l <= 1 }, "a load in (0, 1]"))}
}
