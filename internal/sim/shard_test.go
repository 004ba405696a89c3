package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestGroupSingleShardMatchesLegacy: the same self-rescheduling workload
// run on a bare engine and on a one-shard group produces the same event
// trace and final clock.
func TestGroupSingleShardMatchesLegacy(t *testing.T) {
	type rec struct {
		At Time
		ID int
	}
	load := func(e *Engine, out *[]rec) {
		for i := 0; i < 3; i++ {
			i := i
			var self func()
			n := 0
			self = func() {
				*out = append(*out, rec{e.Now(), i})
				n++
				if n < 5 {
					e.After(Time(100+10*i), self)
				}
			}
			e.At(Time(i), self)
		}
	}

	legacy := New()
	var want []rec
	load(legacy, &want)
	legacy.Run()

	global := New()
	g := NewGroup(global, 1, 50)
	var got []rec
	load(g.Shard(0), &got)
	global.Run()

	if !reflect.DeepEqual(want, got) {
		t.Errorf("traces differ:\nlegacy: %v\ngroup:  %v", want, got)
	}
	if lf, gf := legacy.fired, g.Fired(); lf != gf {
		t.Errorf("fired %d vs %d", lf, gf)
	}
}

// TestGroupWindowsRespectLookahead: shard events never run past the next
// window boundary before the other shard catches up — observed here via
// a strictly non-decreasing cross-shard merge of window-stamped records.
func TestGroupWindowsRespectLookahead(t *testing.T) {
	global := New()
	g := NewGroup(global, 2, 10)
	var times [2][]Time
	for s := 0; s < 2; s++ {
		s := s
		e := g.Shard(s)
		var self func()
		n := 0
		self = func() {
			times[s] = append(times[s], e.Now())
			n++
			if n < 20 {
				e.After(Time(3+s), self)
			}
		}
		e.At(0, self)
	}
	global.Run()
	for s, ts := range times {
		if len(ts) != 20 {
			t.Fatalf("shard %d ran %d events, want 20", s, len(ts))
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Errorf("shard %d time went backwards: %v", s, ts)
			}
		}
	}
	// With lookahead 10, shard clocks may never diverge by more than one
	// window: every event in shard 0 at time T must run before any event
	// in shard 1 at time >= T+10 (conservative synchronization).
	if d := times[0][len(times[0])-1] - times[1][len(times[1])-1]; d > 10 || d < -10 {
		t.Logf("final skew %d (informational; clocks meet at the end)", d)
	}
}

// TestGroupCrossShardSend: an in-window mailbox handoff lands on the
// destination shard at the requested time, after the barrier.
func TestGroupCrossShardSend(t *testing.T) {
	global := New()
	g := NewGroup(global, 2, 10)
	var (
		arrivedAt  Time = -1
		barrierRan bool
	)
	g.OnBarrier(func(now Time) { barrierRan = true })
	e0 := g.Shard(0)
	e0.At(5, func() {
		g.Send(0, 1, e0.Now()+10, 42, 0, 42, func(a, b any) {
			arrivedAt = g.Shard(1).Now()
		}, nil, nil)
	})
	global.Run()
	if arrivedAt != 15 {
		t.Errorf("cross-shard event ran at %d, want 15", arrivedAt)
	}
	if !barrierRan {
		t.Error("barrier hook never ran")
	}
}

// TestGroupGlobalEventsAtBarriers: global-lane events fire at their exact
// times with every shard clock caught up — a window never runs past a
// pending global event.
func TestGroupGlobalEventsAtBarriers(t *testing.T) {
	global := New()
	g := NewGroup(global, 2, 1000)
	busy := func(e *Engine) {
		var self func()
		n := 0
		self = func() {
			n++
			if n < 100 {
				e.After(7, self)
			}
		}
		e.At(0, self)
	}
	busy(g.Shard(0))
	busy(g.Shard(1))
	var globalTimes []Time
	var shardClocks [][2]Time
	for _, at := range []Time{50, 250, 333} {
		at := at
		global.At(at, func() {
			globalTimes = append(globalTimes, global.Now())
			shardClocks = append(shardClocks, [2]Time{g.Shard(0).Now(), g.Shard(1).Now()})
		})
	}
	global.Run()
	if want := []Time{50, 250, 333}; !reflect.DeepEqual(globalTimes, want) {
		t.Errorf("global events ran at %v, want %v", globalTimes, want)
	}
	for i, sc := range shardClocks {
		if sc[0] != globalTimes[i] || sc[1] != globalTimes[i] {
			t.Errorf("global event %d at %d saw shard clocks %v; want both == event time",
				i, globalTimes[i], sc)
		}
	}
}

// TestGroupRunUntilAndStop: RunUntil leaves post-end events pending and
// clocks at end; Stop from a global event halts the whole group.
func TestGroupRunUntilAndStop(t *testing.T) {
	global := New()
	g := NewGroup(global, 2, 10)
	ran := map[Time]bool{}
	for _, at := range []Time{5, 30, 90} {
		at := at
		g.Shard(1).At(at, func() { ran[at] = true })
	}
	global.RunUntil(40)
	if !ran[5] || !ran[30] || ran[90] {
		t.Errorf("RunUntil(40) ran %v", ran)
	}
	if n := global.Now(); n != 40 {
		t.Errorf("global clock %d after RunUntil(40)", n)
	}
	if n := g.Shard(0).Now(); n != 40 {
		t.Errorf("idle shard clock %d after RunUntil(40)", n)
	}
	if g.Pending() != 1 {
		t.Errorf("pending = %d, want the post-end event", g.Pending())
	}

	stopped := false
	global.At(50, func() { global.Stop(); stopped = true })
	global.Run()
	if !stopped {
		t.Fatal("stop event never ran")
	}
	if ran[90] {
		t.Error("event past Stop ran")
	}
}

// TestAtKeyedOrdering: equal-timestamp events pop in (k1, seq) order
// regardless of insertion order, and legacy events (lane 0) sort ahead
// of laned ones.
func TestAtKeyedOrdering(t *testing.T) {
	e := New()
	var order []string
	add := func(name string, lane, seq uint64) {
		e.AtKeyed(10, lane, seq, 0, func(a, b any) { order = append(order, name) }, nil, nil)
	}
	add("b-lane2-seq1", 2, 1)
	add("a-lane1-seq9", 1, 9)
	add("c-lane2-seq0", 2, 0)
	e.At(10, func() { order = append(order, "legacy") }) // lane 0
	for e.Step() {
	}
	want := []string{"legacy", "a-lane1-seq9", "c-lane2-seq0", "b-lane2-seq1"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("pop order %v, want %v", order, want)
	}
}

// meshMsg is one message of the mesh model: the key it fired under and
// its route.
type meshMsg struct {
	At   Time
	Lane uint64
	Seq  uint64
	From int
	To   int
	Hop  int
}

// runMesh runs a synthetic mesh model on k shards — nodes exchanging
// keyed messages with >= lookahead delay, lanes and sequences from node
// identity — as one burst of back-to-back windows, a long idle gap, and
// a second burst started by a global-lane event. prepare, when set, runs
// on the group before the model starts. It returns every node's
// deliveries in firing order, node after node, and every shard's.
func runMesh(k int, prepare func(*Group)) (byNode []meshMsg, byShard [][]meshMsg, g *Group) {
	const nodes = 8
	const lookahead = Time(10)
	global := New()
	g = NewGroup(global, k, lookahead)
	if prepare != nil {
		prepare(g)
	}
	var nodeLog [nodes][]meshMsg
	byShard = make([][]meshMsg, k)
	seqs := make([]uint64, nodes)
	shard := func(n int) int { return n % k }
	engines := make([]*Engine, nodes)
	for n := range engines {
		engines[n] = g.Shard(shard(n))
	}
	var deliver func(a, b any)
	send := func(from, to, hop int) {
		e := engines[from]
		at := e.Now() + lookahead + Time(from)
		// Lane per directed (from, to) pair with a per-sender sequence —
		// the netsim ARR-lane discipline. A lane shared by two senders
		// would let their independent seq counters collide and fall back
		// to partition-dependent insertion order.
		lane := uint64(1)<<32 | uint64(from)<<16 | uint64(to)
		seq := seqs[from]
		seqs[from]++
		m := &meshMsg{At: at, Lane: lane, Seq: seq, From: from, To: to, Hop: hop}
		if shard(from) != shard(to) && g.InWindow() {
			g.Send(shard(from), shard(to), at, lane, seq, lane, deliver, m, nil)
		} else {
			engines[to].AtKeyed(at, lane, seq, lane, deliver, m, nil)
		}
	}
	deliver = func(a, b any) {
		m := a.(*meshMsg)
		nodeLog[m.To] = append(nodeLog[m.To], *m)
		byShard[shard(m.To)] = append(byShard[shard(m.To)], *m)
		if m.Hop%16 < 12 {
			send(m.To, (m.To+3)%nodes, m.Hop+1)
			if m.Hop%3 == 0 {
				send(m.To, (m.To+5)%nodes, m.Hop+1)
			}
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		engines[n].At(Time(n%3), func() { send(n, (n+1)%nodes, 0) })
	}
	global.At(100_000, func() { // long after the first burst drains
		for n := 0; n < nodes; n++ {
			send(n, (n+2)%nodes, 16)
		}
	})
	global.Run()
	for n := range nodeLog {
		byNode = append(byNode, nodeLog[n]...)
	}
	return byNode, byShard, g
}

// TestGroupDeterministicAcrossShardCounts: the mesh model produces an
// identical message log, and runs the same window sequence, for 1, 2, 4
// and 8 shards.
func TestGroupDeterministicAcrossShardCounts(t *testing.T) {
	base, _, g1 := runMesh(1, nil)
	if len(base) == 0 {
		t.Fatal("no messages exchanged")
	}
	if g1.Windows() == 0 || g1.InlineWindows() != g1.Windows() {
		t.Fatalf("one shard: %d windows, %d inline; want some, all inline", g1.Windows(), g1.InlineWindows())
	}
	for _, k := range []int{2, 4, 8} {
		got, _, g := runMesh(k, nil)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("k=%d: message log diverged (%d vs %d messages)", k, len(base), len(got))
		}
		if g.Windows() != g1.Windows() {
			t.Errorf("k=%d: %d windows, want %d as at k=1", k, g.Windows(), g1.Windows())
		}
	}
}

// TestInlineAndDispatchedWindowsAgree: forcing every window with two busy
// shards onto the workers, or every window inline on the coordinator,
// fires the same keys in the same order on each shard and delivers the
// same messages, across back-to-back windows and a long idle gap.
func TestInlineAndDispatchedWindowsAgree(t *testing.T) {
	inlineNode, inlineShard, gi := runMesh(2, func(g *Group) { g.dispatchAt = math.MaxUint64 })
	dispNode, dispShard, gd := runMesh(2, func(g *Group) { g.dispatchAt = 0 })
	if gi.InlineWindows() != gi.Windows() {
		t.Errorf("forced inline: %d of %d windows inline", gi.InlineWindows(), gi.Windows())
	}
	if gd.InlineWindows() == gd.Windows() {
		t.Errorf("forced dispatch: all %d windows ran inline; the model never had two busy shards", gd.Windows())
	}
	if gi.Windows() != gd.Windows() {
		t.Errorf("windows: %d inline, %d dispatched", gi.Windows(), gd.Windows())
	}
	for s := range inlineShard {
		if !reflect.DeepEqual(inlineShard[s], dispShard[s]) {
			t.Errorf("shard %d fired a different key sequence inline (%d) and dispatched (%d)",
				s, len(inlineShard[s]), len(dispShard[s]))
		}
	}
	if !reflect.DeepEqual(inlineNode, dispNode) {
		t.Error("deliveries differ between inline and dispatched windows")
	}
	if !slices.ContainsFunc(inlineNode, func(m meshMsg) bool { return m.At > 100_000 }) {
		t.Error("no delivery after the idle gap")
	}
}

// TestStepOnGlobalLaneAdvancesGroup: Step on a group's global lane cannot
// step that one lane alone. It runs every lane through the earliest
// pending timestamp — global events, shard events and the barrier hook at
// that instant — and reports false only once nothing is pending anywhere.
func TestStepOnGlobalLaneAdvancesGroup(t *testing.T) {
	global := New()
	g := NewGroup(global, 2, 10)
	lanes := []*Engine{global, g.Shard(0), g.Shard(1)}
	ran := make([][]Time, len(lanes)) // per lane: one writer each
	at := func(lane int, when Time) {
		e := lanes[lane]
		e.At(when, func() { ran[lane] = append(ran[lane], e.Now()) })
	}
	barriers := 0
	g.OnBarrier(func(Time) { barriers++ })
	at(0, 5)
	at(1, 5)
	at(2, 5)
	at(2, 7)
	at(0, 20)

	for i, w := range []struct {
		now  Time
		want [][]Time // what each lane ran in this step
	}{
		{5, [][]Time{{5}, {5}, {5}}},
		{7, [][]Time{nil, nil, {7}}},
		{20, [][]Time{{20}, nil, nil}},
	} {
		for lane := range ran {
			ran[lane] = nil
		}
		before := barriers
		if !global.Step() {
			t.Fatalf("step %d: reported nothing pending", i)
		}
		if !reflect.DeepEqual(ran, w.want) {
			t.Errorf("step %d: lanes ran %v, want %v", i, ran, w.want)
		}
		for lane, e := range lanes {
			if e.Now() != w.now {
				t.Errorf("step %d: lane %d clock reads %d, want %d", i, lane, e.Now(), w.now)
			}
		}
		if barriers == before {
			t.Errorf("step %d crossed no barrier", i)
		}
	}
	if global.Step() {
		t.Error("Step reported work on a drained group")
	}
	if g.Fired() != 5 {
		t.Errorf("fired %d events, want 5", g.Fired())
	}
}

// TestNewGroupReplacesIdleGroup: an engine may be re-grouped while its
// group's shards have fired nothing and hold nothing — global-lane events
// carry over — and not afterwards.
func TestNewGroupReplacesIdleGroup(t *testing.T) {
	global := New()
	NewGroup(global, 1, 10)
	ran := false
	global.At(3, func() { ran = true })
	g := NewGroup(global, 2, 10) // born group idle: replaced
	g.Shard(1).At(1, func() {})
	global.Run()
	if !ran || g.Fired() != 2 {
		t.Errorf("after re-grouping: global event ran=%v, fired=%d, want true, 2", ran, g.Fired())
	}

	for name, dirty := range map[string]func(*Group){
		"pending": func(g *Group) { g.Shard(0).At(1, func() {}) },
		"fired":   func(g *Group) { g.Shard(0).At(1, func() {}); g.Run() },
		"mailbox": func(g *Group) { g.Send(0, 0, 1, 0, 0, 0, func(a, b any) {}, nil, nil) },
	} {
		e := New()
		dirty(NewGroup(e, 1, 10))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: re-grouping a used group did not panic", name)
				}
			}()
			NewGroup(e, 2, 10)
		}()
	}
}
