package collective

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/telemetry"
)

// StepRecord is the timing of one completed step: when it started, how
// long until its last flow delivered, and the straggler spread (last
// completion minus first — how much the slowest flow held the barrier).
type StepRecord struct {
	Iter      int
	Step      int
	Flows     int
	Start     sim.Time
	Duration  sim.Time
	Straggler sim.Time
}

// Result is the outcome of a collective run after the engine stops.
type Result struct {
	// Completed counts fully finished iterations; Stalled is set when
	// the run ended mid-iteration (the deadline hit with flows pending —
	// the signature of a deadlocked or collapsed fabric).
	Completed int
	Stalled   bool

	// PendingStep / PendingIter locate the stall (valid when Stalled).
	PendingIter int
	PendingStep int

	// IterDurations are per-iteration collective completion times, in
	// iteration order.
	IterDurations []sim.Time

	// Steps are the per-step records, in completion order.
	Steps []StepRecord

	// Elapsed is first-flow-start to last-iteration-complete (end-to-end
	// collective time across all iterations); zero if nothing completed.
	Elapsed sim.Time
}

// Runner executes a collective on a live network with barrier
// semantics: it launches every flow of a step together and launches
// step N+1 only when the last flow of step N has delivered its final
// byte. Flow starting is delegated to the caller (the experiment layer
// owns protocol wiring and reliability choices); the runner owns the
// dependency structure and the clock.
type Runner struct {
	Cfg Config

	// Start launches the flow for one transfer and returns it. Called
	// once per transfer per iteration, in step order and transfer order.
	Start func(t Transfer) *netsim.Flow

	// Reg, when set, receives the timing histograms: collective.iter_ns,
	// collective.step_ns, collective.straggler_ns.
	Reg *telemetry.Registry

	engine *sim.Engine
	steps  []Step

	iter      int
	step      int
	pending   map[netsim.FlowID]struct{}
	stepStart sim.Time
	iterStart sim.Time
	runStart  sim.Time
	firstDone sim.Time
	done      bool

	result Result
}

// Begin installs the runner on the network and launches the first step
// at the engine's current time. The caller then drives the engine
// (RunUntil) and reads Result when it returns. The network's OnFlowDone
// hook is chained, not replaced.
func (r *Runner) Begin(net *netsim.Network) {
	r.Cfg = r.Cfg.Filled()
	if r.Start == nil {
		panic("collective: Runner.Start is nil")
	}
	r.engine = net.Engine
	r.steps = Steps(r.Cfg)
	r.pending = make(map[netsim.FlowID]struct{})
	r.runStart = r.engine.Now()

	prev := net.OnFlowDone
	net.OnFlowDone = func(f *netsim.Flow) {
		r.onFlowDone(f)
		if prev != nil {
			prev(f)
		}
	}

	r.iterStart = r.engine.Now()
	r.launchStep()
}

// launchStep starts every transfer of the current step.
func (r *Runner) launchStep() {
	now := r.engine.Now()
	r.stepStart = now
	r.firstDone = -1
	step := r.steps[r.step]
	for _, t := range step {
		f := r.Start(t)
		if f == nil || f.Done() {
			// A transfer the starter could not launch (or that completed
			// synchronously) does not hold the barrier.
			continue
		}
		r.pending[f.ID] = struct{}{}
	}
	if len(r.pending) == 0 {
		// Degenerate step (all transfers refused): advance rather than
		// stall the whole collective.
		r.completeStep()
	}
}

func (r *Runner) onFlowDone(f *netsim.Flow) {
	if r.done {
		return
	}
	if _, ok := r.pending[f.ID]; !ok {
		return
	}
	delete(r.pending, f.ID)
	now := r.engine.Now()
	if r.firstDone < 0 {
		r.firstDone = now
	}
	if len(r.pending) == 0 {
		r.completeStep()
	}
}

func (r *Runner) completeStep() {
	now := r.engine.Now()
	straggler := sim.Time(0)
	if r.firstDone >= 0 {
		straggler = now - r.firstDone
	}
	rec := StepRecord{
		Iter:      r.iter,
		Step:      r.step,
		Flows:     len(r.steps[r.step]),
		Start:     r.stepStart,
		Duration:  now - r.stepStart,
		Straggler: straggler,
	}
	r.result.Steps = append(r.result.Steps, rec)
	r.observe("collective.step_ns", int64(rec.Duration))
	r.observe("collective.straggler_ns", int64(rec.Straggler))

	r.step++
	if r.step >= len(r.steps) {
		iterDur := now - r.iterStart
		r.result.IterDurations = append(r.result.IterDurations, iterDur)
		r.result.Completed++
		r.observe("collective.iter_ns", int64(iterDur))
		r.step = 0
		r.iter++
		if r.iter >= r.Cfg.Iterations {
			r.done = true
			r.result.Elapsed = now - r.runStart
			return
		}
		r.iterStart = now
	}
	// Launch from a fresh event, not from inside a packet-arrival
	// callback: flow starts happen after the completing packet's
	// processing fully unwinds.
	r.engine.After(0, r.launchStep)
}

func (r *Runner) observe(name string, v int64) {
	if r.Reg != nil {
		r.Reg.Histogram(name).Observe(v)
	}
}

// Done reports whether every iteration completed.
func (r *Runner) Done() bool { return r.done }

// Result finalizes and returns the run outcome. Call after the engine
// has stopped; if iterations remain it marks the run stalled and points
// at the pending step.
func (r *Runner) Result() Result {
	res := r.result
	if !r.done {
		res.Stalled = true
		res.PendingIter = r.iter
		res.PendingStep = r.step
		res.Elapsed = r.engine.Now() - r.runStart
	}
	return res
}
