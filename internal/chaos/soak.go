package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocc/internal/experiments"
	"rocc/internal/harness"
	"rocc/internal/telemetry"
)

// SoakOptions configures a soak campaign.
type SoakOptions struct {
	// Seed is the campaign base seed; scenario i uses Seed + i, so any
	// verdict is replayable from the campaign seed and its index alone.
	Seed int64

	// Count is the number of scenarios to run. When Budget is also set,
	// the campaign ends at whichever limit is hit first; Count <= 0 with
	// a Budget means "until the budget expires".
	Count int

	// Budget is an optional wall-clock cap. Scenarios are launched in
	// batches and no new batch starts after the budget expires. It only
	// gates scheduling — verdicts never depend on it.
	Budget time.Duration

	// Workers bounds the harness pool (<= 0: GOMAXPROCS).
	Workers int

	// Gen and Run tune scenario generation and the monitors.
	Gen GenOptions
	Run RunOptions

	// Shrink minimizes up to maxRepros failing scenarios after the
	// sweep, each in at most maxShrinkRuns replays.
	Shrink bool

	// OutDir, when non-empty, receives one repro per shrunk failure:
	// seed-<S>.json (the minimized scenario) and seed-<S>.trace.json
	// (a Chrome trace of its replay).
	OutDir string

	// OnScenario, if set, is called with each verdict in scenario order
	// as its batch completes.
	OnScenario func(v Verdict)
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Count <= 0 && o.Budget <= 0 {
		o.Count = 100
	}
	return o
}

// The limits of SoakOptions.Shrink.
const (
	maxRepros     = 5
	maxShrinkRuns = 400
)

// Verdict is one scenario's outcome in the campaign log. It holds only
// simulation-derived values — no wall-clock — so a soak with the same
// seed and limits produces an identical verdict sequence regardless of
// worker count or machine speed.
type Verdict struct {
	Index    int    `json:"index"`
	Seed     int64  `json:"seed"`
	Protocol string `json:"protocol"`
	// Protocols lists every protocol sharing the fabric when the
	// scenario is mixed (primary first); empty for single-protocol runs.
	Protocols []string `json:"protocols,omitempty"`
	Topology  string   `json:"topology"`
	// Mode is the operating mode; empty means hybrid (the default).
	Mode   string `json:"mode,omitempty"`
	Flows  int    `json:"flows"`
	Faults int    `json:"faults"`
	// Rogues counts the scenario's rogue senders; Defended records
	// whether the switch-side defenses were attached.
	Rogues   int    `json:"rogues,omitempty"`
	Defended bool   `json:"defended,omitempty"`
	Result   Result `json:"result"`
	Err      string `json:"err,omitempty"`
}

// ModeLabel names the scenario's operating mode, spelling out the
// default instead of an empty string.
func (v Verdict) ModeLabel() string {
	if v.Mode == "" {
		return "hybrid"
	}
	return v.Mode
}

// ProtocolLabel names the scenario's protocol set: the primary protocol,
// or a +-joined list for mixed fabrics.
func (v Verdict) ProtocolLabel() string {
	if len(v.Protocols) > 1 {
		label := v.Protocols[0]
		for _, p := range v.Protocols[1:] {
			label += "+" + p
		}
		return label
	}
	return v.Protocol
}

// Failed reports whether the scenario tripped any invariant or errored.
func (v Verdict) Failed() bool {
	return v.Err != "" || len(v.Result.Violations) > 0
}

// Repro is one minimized failing case written to disk.
type Repro struct {
	Seed       int64  `json:"seed"`
	Invariant  string `json:"invariant"`
	ConfigPath string `json:"config_path,omitempty"`
	TracePath  string `json:"trace_path,omitempty"`
	Shrink     ShrinkResult
}

// Report is a whole campaign's outcome.
type Report struct {
	Seed      int64
	Scenarios int
	Failures  int
	Mixed     int // scenarios running ≥2 protocols on one fabric
	Moded     int // scenarios in a non-default operating mode
	Rogued    int // scenarios hosting rogue senders under the defenses
	Verdicts  []Verdict
	Repros    []Repro
}

// Soak runs a randomized scenario campaign: generate scenario i from
// seed base+i, run it under the monitor suite on the harness worker
// pool, and — for up to maxRepros failures — shrink the scenario and
// emit its minimized repro. Verdicts come back in scenario order.
func Soak(opts SoakOptions) Report {
	o := opts.withDefaults()
	rep := Report{Seed: o.Seed}
	deadline := time.Time{}
	if o.Budget > 0 {
		deadline = time.Now().Add(o.Budget)
	}

	// Launch in batches so a budget-limited campaign stops between
	// batches without a stray goroutine outliving the call.
	const batch = 64
	for {
		remaining := batch
		if o.Count > 0 {
			if left := o.Count - rep.Scenarios; left < remaining {
				remaining = left
			}
		}
		if remaining <= 0 {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		indices := make([]int, remaining)
		for i := range indices {
			indices[i] = rep.Scenarios + i
		}
		results := harness.Run(indices, o.Workers, func(idx int) Verdict {
			sc := Generate(o.Seed+int64(idx), o.Gen)
			v := Verdict{
				Index:    idx,
				Seed:     sc.Seed,
				Protocol: sc.Protocol,
				Topology: sc.Topology.Kind,
				Mode:     sc.Mode,
				Flows:    len(sc.Flows),
				Faults:   len(sc.Faults),
				Rogues:   sc.RogueCount(),
				Defended: sc.Defended,
			}
			if protos := sc.Protocols(); len(protos) > 1 {
				for _, p := range protos {
					v.Protocols = append(v.Protocols, string(p))
				}
			}
			res, err := Run(sc, o.Run)
			if err != nil {
				v.Err = err.Error()
			}
			v.Result = res
			return v
		})
		for i, r := range results {
			v := r.Value
			if r.Err != nil { // cell panic
				v.Index = indices[i]
				v.Seed = o.Seed + int64(v.Index)
				v.Err = r.Err.Error()
			}
			if v.Failed() {
				rep.Failures++
			}
			if len(v.Protocols) > 1 {
				rep.Mixed++
			}
			if v.Mode != "" {
				rep.Moded++
			}
			if v.Rogues > 0 {
				rep.Rogued++
			}
			rep.Verdicts = append(rep.Verdicts, v)
			if o.OnScenario != nil {
				o.OnScenario(v)
			}
		}
		rep.Scenarios += remaining
	}

	if o.Shrink {
		for _, v := range rep.Verdicts {
			if len(rep.Repros) >= maxRepros {
				break
			}
			if len(v.Result.Violations) == 0 {
				continue
			}
			inv := v.Result.Violations[0].Invariant
			sc := Generate(v.Seed, o.Gen)
			sr := Shrink(sc, inv, o.Run, maxShrinkRuns)
			r := Repro{Seed: v.Seed, Invariant: inv, Shrink: sr}
			if o.OutDir != "" {
				if err := writeRepro(&r, o.OutDir, o.Run); err != nil {
					// Repro emission is best-effort; the in-memory
					// ShrinkResult still carries the minimized scenario.
					fmt.Fprintf(os.Stderr, "chaos: writing repro for seed %d: %v\n", v.Seed, err)
				}
			}
			rep.Repros = append(rep.Repros, r)
		}
	}
	return rep
}

// writeRepro persists a minimized scenario as config JSON plus a Chrome
// trace of its replay's failing window.
func writeRepro(r *Repro, dir string, runOpts RunOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := filepath.Join(dir, fmt.Sprintf("seed-%d.json", r.Seed))
	if err := r.Shrink.Minimized.Save(cfg); err != nil {
		return err
	}
	r.ConfigPath = cfg

	// Replay with the flight recorder on; StopOnFirst keeps the ring
	// buffer's tail at the violation instant.
	tel := experiments.NewRunTelemetry()
	runOpts.Telemetry = tel
	runOpts.StopOnFirst = true
	if _, err := Run(r.Shrink.Minimized, runOpts); err != nil {
		return err
	}
	trace := filepath.Join(dir, fmt.Sprintf("seed-%d.trace.json", r.Seed))
	f, err := os.Create(trace)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.WriteChromeTrace(f, tel.Events()); err != nil {
		return err
	}
	r.TracePath = trace
	return nil
}
