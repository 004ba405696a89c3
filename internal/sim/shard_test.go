package sim

import (
	"reflect"
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
	if lf, gf := legacy.Fired(), g.Fired(); lf != gf {
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
// destination shard at the requested time, after the barrier, with the
// transfer hook observing it exactly once.
func TestGroupCrossShardSend(t *testing.T) {
	global := New()
	g := NewGroup(global, 2, 10)
	var (
		arrivedAt  Time = -1
		transfers  int
		barrierRan bool
	)
	g.SetTransfer(func(a, b any, dst int) {
		transfers++
		if dst != 1 {
			t.Errorf("transfer dst = %d, want 1", dst)
		}
	})
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
	if transfers != 1 {
		t.Errorf("transfer hook ran %d times, want 1", transfers)
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

// TestGroupDeterministicAcrossShardCounts: a synthetic mesh model —
// nodes exchanging keyed messages with >= lookahead delay — produces an
// identical message log for 1, 2, 4 and 8 shards when lanes and
// sequences come from node identity.
func TestGroupDeterministicAcrossShardCounts(t *testing.T) {
	const nodes = 8
	const lookahead = Time(10)
	type msg struct {
		At   Time
		From int
		To   int
		Hop  int
	}

	run := func(k int) []msg {
		global := New()
		g := NewGroup(global, k, lookahead)
		var log [nodes][]msg
		seqs := make([]uint64, nodes)
		engines := make([]*Engine, nodes)
		for n := 0; n < nodes; n++ {
			engines[n] = g.Shard(n % k)
		}
		shard := func(n int) int { return n % k }
		var deliver func(a, b any)
		send := func(from, to, hop int) {
			e := engines[from]
			at := e.Now() + lookahead + Time(from)
			// Lane per directed (from, to) pair with a per-sender sequence —
			// the netsim ARR-lane discipline. A lane shared by two senders
			// would let their independent seq counters collide and fall
			// back to partition-dependent insertion order.
			lane := uint64(1)<<32 | uint64(from)<<16 | uint64(to)
			seq := seqs[from]
			seqs[from]++
			m := &msg{At: at, From: from, To: to, Hop: hop}
			if shard(from) == shard(to) {
				engines[to].AtKeyed(at, lane, seq, lane, deliver, m, nil)
			} else if g.InWindow() {
				g.Send(shard(from), shard(to), at, lane, seq, lane, deliver, m, nil)
			} else {
				engines[to].AtKeyed(at, lane, seq, lane, deliver, m, nil)
			}
		}
		deliver = func(a, b any) {
			m := a.(*msg)
			log[m.To] = append(log[m.To], *m)
			if m.Hop < 12 {
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
		global.Run()
		var all []msg
		for n := 0; n < nodes; n++ {
			all = append(all, log[n]...)
		}
		return all
	}

	base := run(1)
	if len(base) == 0 {
		t.Fatal("no messages exchanged")
	}
	for _, k := range []int{2, 4, 8} {
		if got := run(k); !reflect.DeepEqual(base, got) {
			t.Errorf("k=%d: message log diverged (%d vs %d messages)", k, len(base), len(got))
		}
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
