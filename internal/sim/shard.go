package sim

import "sync"

// Group couples one global-lane engine with K shard engines under a
// conservative-lookahead window schedule (Chandy–Misra style). The model
// is partitioned so that every cross-shard interaction is a scheduled
// handoff with delay >= the group's lookahead; within one window
// [base, w), w <= base+lookahead, each shard's events are then causally
// closed, so the shards may execute it concurrently or one after another
// with the same outcome. Large windows go to one worker goroutine per
// busy shard; small ones, where waking the workers would cost more than
// the window's work, run inline on the coordinator (see inlineBelow). At
// the window barrier the coordinator drains cross-shard mailboxes into
// the destination heaps, runs the model's barrier hook, and executes
// global-lane events due at the barrier time.
//
// Determinism contract: the window-boundary sequence is derived only
// from the union of pending event times (partition-independent), and
// same-timestamp ordering uses the (at, k1, seq) lane keys stamped by
// the scheduling side (see event.k1) — so a fixed-seed run produces
// byte-identical results for any shard count over the same model.
//
// The global lane is the engine the model was built against: existing
// code that schedules timers, monitors, or workload arrivals on it runs
// only at barriers, with every shard quiesced, and may therefore touch
// any shard's state directly.
type Group struct {
	global    *Engine
	shards    []*Engine
	lookahead Time
	stopped   bool

	// mailboxes is a flattened [src*K+dst] matrix of pending cross-shard
	// handoffs. During a window each slice has exactly one writer (the
	// src shard's worker); the coordinator drains and resets them at the
	// barrier, so no locks are needed — the window dispatch/join is the
	// synchronization. Slices keep their capacity across barriers.
	mailboxes [][]mailboxEntry

	// onBarrier, when set, runs on the coordinator at every window
	// barrier after mailboxes drain and before global events execute.
	// All shard clocks read the barrier time; all workers are quiesced.
	onBarrier func(now Time)

	inWindow bool // true only while a window executes, on workers or inline

	work    []chan Time
	wg      sync.WaitGroup
	started bool

	busy          []int  // runWindows' scratch: the shards due this window
	lastFired     uint64 // shard events fired before the previous window
	dispatchAt    uint64 // inlineBelow; tests set it to force either path
	windows       uint64 // windows in which some shard had an event due
	inlineWindows uint64 // of those, the ones run on the coordinator
}

// inlineBelow is the fewest events the previous window must have fired
// for the next one to be dispatched to the shard workers; below it the
// coordinator runs every busy shard's window itself. Waking parked
// workers and parking the coordinator on the barrier costs more than a
// small window's work. Measured on 2 CPUs, on the paper's 3×3×30
// fat-tree at 2 shards (FB_Hadoop, 70 % load, seed 7: 52 events per
// window on average, 99.4 % of windows under 256), three runs each:
// dispatching after windows of 32 events or more took 1.50–1.55 s, as
// dispatching every window did, with CPU time equal to wall time, so
// the shards never overlapped; 128 took 0.96–1.10 s; 512 and 1 024 took
// 0.76–0.95 s, level with running every window inline. The k = 16
// fat-tree's windows hold ~25 000 events each, and dispatching them
// stays 1.8× faster than running them inline.
const inlineBelow = 1024

// mailboxEntry is one deferred cross-shard scheduling request, drained
// into the destination shard's heap in (src shard, append seq) order.
// The heap's (at, lane, seq) keys make the insertion order irrelevant to
// execution order; draining in a fixed order keeps the walk cache-warm.
type mailboxEntry struct {
	at   Time
	lane uint64
	seq  uint64
	ctx  uint64
	cb   Callback
	a, b any
}

// NewGroup wraps an existing engine as the global lane of a sharded
// group with k shard engines. lookahead must be positive: it is the
// minimum cross-shard handoff delay the model guarantees. The global
// engine's Run/RunUntil/Step/Stop delegate to the group from here on.
//
// An engine that already leads a group may be re-grouped while that
// group's shards are idle — they have fired nothing and hold nothing —
// which is how a model born on one shard is re-cut onto k before it
// runs. The old group is dropped; events on the global lane carry over.
func NewGroup(global *Engine, k int, lookahead Time) *Group {
	if k < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	if old := global.group; old != nil && !old.shardsIdle() {
		panic("sim: engine's group has already fired or holds shard events")
	}
	g := &Group{
		global:     global,
		shards:     make([]*Engine, k),
		lookahead:  lookahead,
		mailboxes:  make([][]mailboxEntry, k*k),
		work:       make([]chan Time, k),
		dispatchAt: inlineBelow,
	}
	for i := range g.shards {
		g.shards[i] = &Engine{now: global.now}
	}
	global.group = g
	return g
}

// shardsIdle reports whether no shard has fired, queued or been sent an
// event: the state in which the group can be replaced without losing
// anything.
func (g *Group) shardsIdle() bool {
	for _, sh := range g.shards {
		if sh.fired != 0 || sh.Pending() != 0 {
			return false
		}
	}
	for _, box := range g.mailboxes {
		if len(box) != 0 {
			return false
		}
	}
	return true
}

// Global returns the group's global-lane engine (the one the model was
// constructed with).
func (g *Group) Global() *Engine { return g.global }

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns shard engine i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the conservative window size.
func (g *Group) Lookahead() Time { return g.lookahead }

// InWindow reports whether a window is executing, on the shard workers
// or inline on the coordinator. Model code uses it to choose between the
// mailbox path (in-window, cross-shard) and direct scheduling
// (barrier/global context, when every heap is quiescent). The flag only
// changes while workers are quiesced, so in-window readers always see
// true.
func (g *Group) InWindow() bool { return g.inWindow }

// OnBarrier installs the barrier hook.
func (g *Group) OnBarrier(fn func(now Time)) { g.onBarrier = fn }

// Send appends a cross-shard scheduling request to the (src, dst)
// mailbox. It must be called from src's shard context during a window;
// the entry lands in dst's heap at the next barrier. at must be >= the
// end of the current window, which the lookahead guarantees for any
// handoff delayed by at least Lookahead.
func (g *Group) Send(src, dst int, at Time, lane, seq, ctx uint64, cb Callback, a, b any) {
	box := &g.mailboxes[src*len(g.shards)+dst]
	*box = append(*box, mailboxEntry{at: at, lane: lane, seq: seq, ctx: ctx, cb: cb, a: a, b: b})
}

// drainMailboxes moves every pending entry into its destination heap,
// walking (dst, src) in ascending order and each mailbox in append
// order. Entry timestamps are >= the barrier time (the lookahead
// invariant), so insertion never violates a destination clock.
func (g *Group) drainMailboxes() {
	k := len(g.shards)
	for dst := 0; dst < k; dst++ {
		for src := 0; src < k; src++ {
			box := &g.mailboxes[src*k+dst]
			if len(*box) == 0 {
				continue
			}
			for i := range *box {
				e := &(*box)[i]
				g.shards[dst].AtKeyed(e.at, e.lane, e.seq, e.ctx, e.cb, e.a, e.b)
				*e = mailboxEntry{}
			}
			*box = (*box)[:0]
		}
	}
}

// startWorkers launches one goroutine per shard for the duration of a
// run. Workers block on their channel between windows; a close drains
// them at run end, so an idle Group holds no goroutines.
func (g *Group) startWorkers() {
	if g.started || len(g.shards) == 1 {
		return
	}
	g.started = true
	for i := range g.shards {
		g.work[i] = make(chan Time, 1)
		sh := g.shards[i]
		ch := g.work[i]
		go func() {
			for w := range ch {
				sh.runWindow(w)
				g.wg.Done()
			}
		}()
	}
}

func (g *Group) stopWorkers() {
	if !g.started {
		return
	}
	g.started = false
	for i := range g.work {
		close(g.work[i])
		g.work[i] = nil
	}
}

// runWindows executes one window [*, w) across the shards that have
// events due before w; the others are skipped (their clocks advance at
// the barrier). The window runs inline on the coordinator, each busy
// shard's window one after another, when only one shard is busy, when
// the group has one shard, or when the previous window fired fewer than
// inlineBelow events; otherwise each busy shard's worker runs it. The
// two forms give the same run: a shard's window is causally closed, and
// cross-shard sends go through the mailboxes either way, so the serial
// order cannot reach any event's outcome.
func (g *Group) runWindows(w Time) {
	busy := g.busy[:0]
	for i, sh := range g.shards {
		if sh.nextAt() < w {
			busy = append(busy, i)
		}
	}
	g.busy = busy
	if len(busy) == 0 {
		return
	}
	g.windows++
	fired := g.shardFired()
	last := fired - g.lastFired // what the previous window fired
	g.lastFired = fired
	g.inWindow = true
	if len(busy) == 1 || last < g.dispatchAt {
		g.inlineWindows++
		for _, i := range busy {
			g.shards[i].runWindow(w)
		}
	} else {
		g.wg.Add(len(busy))
		for _, i := range busy {
			g.work[i] <- w
		}
		g.wg.Wait()
	}
	g.inWindow = false
}

// advance fast-forwards every clock (shards and global) that is behind t.
func (g *Group) advance(t Time) {
	for _, sh := range g.shards {
		if sh.now < t {
			sh.now = t
		}
	}
	if g.global.now < t {
		g.global.now = t
	}
}

// Run executes the group until every heap drains or Engine.Stop is
// called.
func (g *Group) Run() { g.runUntil(maxTime, true) }

// RunUntil executes every event with timestamp <= end across all shards
// and the global lane, then sets every clock to end.
func (g *Group) RunUntil(end Time) { g.runUntil(end+1, false) }

// nextAt returns the earliest pending timestamp across the global lane
// and every shard, or maxTime when nothing is pending.
func (g *Group) nextAt() Time {
	next := g.global.nextAt()
	for _, sh := range g.shards {
		if t := sh.nextAt(); t < next {
			next = t
		}
	}
	return next
}

// step is Engine.Step on the global lane: it runs every lane through the
// earliest pending timestamp, barrier included, and reports whether
// anything was pending. A stepped run barriers at every event time, so
// it replays deferred barrier work more often than Run does.
func (g *Group) step() bool {
	next := g.nextAt()
	if next == maxTime {
		return false
	}
	g.RunUntil(next)
	return true
}

// runUntil is the coordinator loop. bound is exclusive: events at
// timestamps < bound execute. With drain set, bound is ignored for the
// final clock (Run semantics); otherwise clocks finish at bound-1.
func (g *Group) runUntil(bound Time, drain bool) {
	g.stopped = false
	g.global.stopped = false
	g.startWorkers()
	defer g.stopWorkers()
	for !g.stopped {
		next := g.nextAt()
		if next >= bound {
			break
		}
		base := g.global.now
		if next > base {
			base = next // jump over idle gaps in one window
		}
		w := base + g.lookahead
		if w > bound {
			w = bound
		}
		if gt := g.global.nextAt(); gt < w {
			w = gt // truncate so global events fire exactly on time
		}
		if w > base {
			g.runWindows(w)
		}
		g.advance(w)
		g.drainMailboxes()
		if g.onBarrier != nil {
			g.onBarrier(w)
		}
		for !g.stopped {
			if at := g.global.nextAt(); at > w || at >= bound {
				break
			}
			g.global.fire()
		}
	}
	if !drain && !g.stopped {
		g.advance(bound - 1)
		for _, sh := range g.shards {
			if sh.now >= bound {
				sh.now = bound - 1
			}
		}
		if g.global.now >= bound {
			g.global.now = bound - 1
		}
	}
}

// Fired returns the total events executed across the global lane and all
// shards.
func (g *Group) Fired() uint64 { return g.global.fired + g.shardFired() }

// shardFired returns the events executed across the shards.
func (g *Group) shardFired() uint64 {
	n := uint64(0)
	for _, sh := range g.shards {
		n += sh.fired
	}
	return n
}

// Windows returns how many windows had an event due on some shard. The
// window sequence is derived from the union of pending times, so the
// count is the same for every shard count over the same model.
func (g *Group) Windows() uint64 { return g.windows }

// InlineWindows returns how many of those windows the coordinator ran
// itself instead of dispatching them to the shard workers: all of them
// on one shard, and on more the ones with one busy shard or following a
// window that fired fewer than inlineBelow events.
func (g *Group) InlineWindows() uint64 { return g.inlineWindows }

// Pending returns the total scheduled events across all heaps.
func (g *Group) Pending() int {
	n := g.global.Pending()
	for _, sh := range g.shards {
		n += sh.Pending()
	}
	return n
}

// MaxPending returns the sum of per-engine queue high-water marks — an
// upper bound on the fabric-wide simultaneous backlog (the per-shard
// peaks need not coincide in time).
func (g *Group) MaxPending() int {
	n := g.global.maxPending
	for _, sh := range g.shards {
		n += sh.maxPending
	}
	return n
}
