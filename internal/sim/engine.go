package sim

// event is one scheduled callback slot. Slots are owned by the engine:
// after an event fires or is cancelled its slot returns to an engine free
// list and is reused by a later At/After, so a steady-state simulation
// schedules without allocating. The generation counter makes stale
// Handles (kept by callers across a recycle) permanently inert.
type event struct {
	at  Time
	seq uint64
	gen uint64 // bumped on every recycle; Handles carry the gen they saw

	// k1 is the ordering lane: events with equal timestamps sort by
	// (k1, seq). A bare engine (no Group) leaves k1 at zero, so its order
	// degenerates to (at, seq). Models on a Group use lanes to make
	// same-timestamp ordering independent of how the topology is
	// partitioned: a lane is shared only by events whose relative seq
	// order is itself partition-independent (see shard.go and DESIGN.md
	// §14).
	//
	// ctx is the lane inherited by children: while this event's callback
	// runs, any event it schedules via At/After/AtCall/AfterCall is
	// stamped k1=ctx=ctx. AtKeyed sets both explicitly.
	k1  uint64
	ctx uint64

	// Exactly one of fn / cb is set while scheduled; both nil once the
	// slot is free. The cb form exists so hot paths can schedule without
	// allocating a closure: cb is typically a package-level func and a, b
	// carry its receiver/argument pointers (pointers boxed in an `any`
	// do not allocate).
	fn   func()
	cb   Callback
	a, b any

	// Position in the pending-event set (queue.go): which of its three
	// places holds the event, its index while in far, its neighbours while
	// linked into a bucket or a list of the loaded slot. A free slot links
	// to the next free one.
	index      int
	next, prev *event
	loc        uint8

	engine *Engine
}

// Callback is the allocation-free callback form: a package-level (or
// otherwise pre-built) function receiving the two values it was scheduled
// with. See Engine.AtCall.
type Callback func(a, b any)

// Handle refers to a scheduled event. It is a small value (no heap
// allocation) and stays safe across the event's whole lifecycle: once the
// event fires or is cancelled, the engine recycles the slot and every
// outstanding Handle to it becomes inert — Cancel on a stale Handle is a
// no-op even if the slot now carries an unrelated event. The zero Handle
// is valid and behaves like an already-cancelled event.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its scheduled event.
func (h Handle) live() bool {
	return h.ev != nil && h.ev.gen == h.gen && (h.ev.fn != nil || h.ev.cb != nil)
}

// At returns the virtual time the event is scheduled for, or 0 if the
// event already fired or was cancelled.
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.ev.at
}

// Cancelled reports whether the event fired, was cancelled, or was never
// scheduled (the zero Handle).
func (h Handle) Cancelled() bool { return !h.live() }

// Cancel prevents the event from firing. Cancelling an event that already
// fired, was cancelled, or whose slot has since been reused is a no-op.
func (h Handle) Cancel() {
	if !h.live() {
		return
	}
	ev := h.ev
	ev.engine.q.remove(ev)
	ev.engine.recycle(ev)
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now        Time
	free       *event // recycled slots, linked through next, reused by At/After
	seq        uint64
	stopped    bool
	fired      uint64
	maxPending int

	// curCtx is the lane of the event currently executing (zero between
	// events and on a bare engine). New events inherit it.
	curCtx uint64

	// group, when non-nil, marks this engine as the global lane of a
	// Group: Run/RunUntil/Step/Stop delegate to the group's windowed
	// coordinator instead of draining this queue alone.
	group *Group

	// q holds the pending events and pops them in (at, k1, seq) order. It
	// is last because it embeds the bucket ring and the loaded slot's
	// lists (about 9 KB, see queue.go); the scalars above stay on the
	// leading cache lines.
	q queue
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return e.q.n }

// acquire returns a free event slot, allocating only when the free list
// is empty (cold start or a new pending high-water mark).
func (e *Engine) acquire() *event {
	if ev := e.free; ev != nil {
		e.free, ev.next = ev.next, nil
		return ev
	}
	return &event{engine: e}
}

// recycle clears a slot and returns it to the free list. The generation
// bump invalidates every outstanding Handle to the old event.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.cb = nil
	ev.a = nil
	ev.b = nil
	ev.next = e.free
	e.free = ev
}

// schedule stamps an acquired, filled slot with the engine's next seq and
// the inherited lane, and queues it.
func (e *Engine) schedule(ev *event, t Time) Handle {
	e.seq++
	ev.seq = e.seq
	ev.k1 = e.curCtx
	ev.ctx = e.curCtx
	return e.enqueue(ev, t)
}

// enqueue inserts a fully keyed slot into the pending set.
func (e *Engine) enqueue(ev *event, t Time) Handle {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	ev.at = t
	e.q.push(ev)
	if n := e.q.n; n > e.maxPending {
		e.maxPending = n
	}
	return Handle{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a model bug.
func (e *Engine) At(t Time, fn func()) Handle {
	ev := e.acquire()
	ev.fn = fn
	return e.schedule(ev, t)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtCall schedules cb(a, b) at absolute virtual time t without allocating:
// the event slot comes from the engine pool and cb is expected to be a
// package-level func (a closure would re-introduce the allocation this
// path exists to avoid). Pointer arguments do not allocate when boxed;
// avoid passing non-pointer values.
func (e *Engine) AtCall(t Time, cb Callback, a, b any) Handle {
	ev := e.acquire()
	ev.cb = cb
	ev.a = a
	ev.b = b
	return e.schedule(ev, t)
}

// AfterCall schedules cb(a, b) d nanoseconds from now. See AtCall.
func (e *Engine) AfterCall(d Time, cb Callback, a, b any) Handle {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+d, cb, a, b)
}

// AtKeyed schedules cb(a, b) at time t with an explicit ordering lane,
// lane-local sequence number, and child context, bypassing the engine's
// own seq counter. Sharded dataplanes use it for packet arrivals: the
// (lane, seq) pair is derived from the transmitting link, so arrival
// order at equal timestamps does not depend on which shard the sender
// landed on. ctx is inherited by everything the callback schedules.
func (e *Engine) AtKeyed(t Time, lane, seq, ctx uint64, cb Callback, a, b any) Handle {
	ev := e.acquire()
	ev.cb = cb
	ev.a = a
	ev.b = b
	ev.seq = seq
	ev.k1 = lane
	ev.ctx = ctx
	return e.enqueue(ev, t)
}

// Stop makes Run and RunUntil return after the current event completes.
// On the global lane of a sharded Group this stops the whole group.
func (e *Engine) Stop() {
	e.stopped = true
	if e.group != nil {
		e.group.stopped = true
	}
}

// Step executes the single earliest pending event and reports whether an
// event was executed. On the global lane of a Group one lane cannot be
// stepped alone: Step there runs the whole group through the earliest
// pending timestamp across all lanes (every event at that instant), and
// reports whether anything was pending.
func (e *Engine) Step() bool {
	if e.group != nil {
		return e.group.step()
	}
	return e.fire()
}

// fire pops and executes this engine's earliest pending event. The slot
// is recycled before the callback runs, so callbacks scheduling new
// events reuse it immediately.
func (e *Engine) fire() bool {
	ev := e.q.first()
	if ev == nil {
		return false
	}
	e.q.remove(ev)
	e.now = ev.at
	e.curCtx = ev.ctx
	fn, cb, a, b := ev.fn, ev.cb, ev.a, ev.b
	e.recycle(ev)
	e.fired++
	if cb != nil {
		cb(a, b)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains or Stop is called. On the
// global lane of a sharded Group it runs the group's windowed schedule.
func (e *Engine) Run() {
	if e.group != nil {
		e.group.Run()
		return
	}
	e.stopped = false
	for !e.stopped && e.fire() {
	}
}

// RunUntil executes events with timestamps <= end, then sets the clock to
// end. Events scheduled after end remain pending. A run interrupted by
// Stop leaves the clock at the last event fired, so that a later Run
// resumes without moving it backwards. On the global lane of a sharded
// Group it runs the group's windowed schedule.
func (e *Engine) RunUntil(end Time) {
	if e.group != nil {
		e.group.RunUntil(end)
		return
	}
	e.stopped = false
	for !e.stopped && e.q.peekAt() <= end && e.fire() {
	}
	if e.now < end && !e.stopped {
		e.now = end
	}
}

// nextAt returns the timestamp of the earliest pending event, or
// maxTime when none is pending.
func (e *Engine) nextAt() Time { return e.q.peekAt() }

// runWindow executes every pending event strictly before w, then
// fast-forwards the clock to w and resets the inherited lane. It is the
// per-shard body of one conservative-lookahead window: all events < w are
// causally closed within the shard (cross-shard influence cannot arrive
// before w), so shards run their windows concurrently.
func (e *Engine) runWindow(w Time) {
	for e.q.peekAt() < w {
		e.fire()
	}
	if e.now < w {
		e.now = w
	}
	e.curCtx = 0
}

// maxTime is the sentinel "no event" timestamp.
const maxTime = Time(1<<63 - 1)

// Ticker invokes fn every period, starting at now+period, until cancelled.
// Each tick's event slot comes from (and returns to) the engine pool, and
// the rescheduling closure is built once, so a running ticker does not
// allocate.
type Ticker struct {
	engine *Engine
	period Time
	fn     func()
	run    func()
	ev     Handle
	done   bool
}

// NewTicker starts a periodic callback. period must be positive.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.run = func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.ev = t.engine.After(t.period, t.run)
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.done = true
	t.ev.Cancel()
}
