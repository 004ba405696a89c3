package sim

import (
	"bytes"
	"container/heap"
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// --- reference: the container/heap event queue the engine used before ---

type refEvent struct {
	at           Time
	k1, seq, ctx uint64
	index        int // heap index, -1 once popped or cancelled
	id           int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].k1 != h[j].k1 {
		return h[i].k1 < h[j].k1
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refEngine mirrors the parts of Engine that the queue can influence.
type refEngine struct {
	now        Time
	events     refHeap
	seq        uint64
	curCtx     uint64
	maxPending int
}

func (r *refEngine) push(ev *refEvent) {
	heap.Push(&r.events, ev)
	if len(r.events) > r.maxPending {
		r.maxPending = len(r.events)
	}
}

func (r *refEngine) schedule(at Time, id int) *refEvent {
	r.seq++
	ev := &refEvent{at: at, k1: r.curCtx, seq: r.seq, ctx: r.curCtx, id: id}
	r.push(ev)
	return ev
}

func (r *refEngine) cancel(ev *refEvent) {
	if ev.index >= 0 {
		heap.Remove(&r.events, ev.index)
		ev.index = -1
	}
}

func (r *refEngine) step() *refEvent {
	if len(r.events) == 0 {
		return nil
	}
	ev := heap.Pop(&r.events).(*refEvent)
	r.now = ev.at
	r.curCtx = ev.ctx
	return ev
}

func (r *refEngine) nextAt() Time {
	if len(r.events) == 0 {
		return maxTime
	}
	return r.events[0].at
}

// --- differential harness ---

const ringSpan = Time(ringSize) << slotShift

// Fuzz input is a sequence of 4-byte operations {opcode, a, b, c}.
const (
	fzPush    = 0 // also 1, 2: push is the common operation
	fzKeyed   = 3
	fzCancel  = 4
	fzPop     = 5
	fzPeek    = 6
	fzRun     = 7
	fzOpcodes = 8

	// Δt classes: the five distances that take different paths.
	dtZero   = 0 // same timestamp
	dtBucket = 1 // within one bucket's span
	dtRing   = 2 // within the ring
	dtFar    = 3 // beyond the ring, up to nine revolutions
	dtHuge   = 4 // many thousands of revolutions
)

func fzDelta(class byte, val uint16) Time {
	switch class % 5 {
	case dtZero:
		return 0
	case dtBucket:
		return Time(val) % (1 << slotShift)
	case dtRing:
		return Time(val) % ringSpan
	case dtFar:
		return ringSpan + Time(val)*8
	default:
		return 1<<32 + Time(val)<<16
	}
}

func op(code, a byte, val uint16) []byte { return []byte{code, a, byte(val >> 8), byte(val)} }

// keyedArg packs AtKeyed's lane (1..3) beside the Δt class.
func keyedArg(class, lane byte) byte { return class + 5*(lane-1) }

func cat(ops ...[]byte) []byte { return slices.Concat(ops...) }

func rep(n int, ops ...[]byte) []byte { return bytes.Repeat(cat(ops...), n) }

// shuffledSlot pushes n events into one slot in an order that is far from
// time order, so that loading it takes the general sort.
func shuffledSlot(n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, op(fzPush, dtBucket, uint16(i*37))...)
	}
	return out
}

type fzHandle struct {
	h   Handle
	ref *refEvent
}

type fzState struct {
	e       *Engine
	r       refEngine
	handles []fzHandle
	fired   []int // ids in the order the engine fired them
	laneSeq [4]uint64
}

func fzFire(a, b any) {
	s := a.(*fzState)
	s.fired = append(s.fired, b.(*refEvent).id)
}

func (s *fzState) push(at Time, keyed bool, lane uint64) {
	id := len(s.handles)
	if !keyed {
		ref := s.r.schedule(at, id)
		s.handles = append(s.handles, fzHandle{s.e.AtCall(at, fzFire, s, ref), ref})
		return
	}
	// Keyed seqs come from a per-lane counter kept apart from the
	// engine's own, as a transmitting port's counter is: keys are unique.
	s.laneSeq[lane]++
	seq := 1<<40 | s.laneSeq[lane]
	ref := &refEvent{at: at, k1: lane, seq: seq, ctx: lane, id: id}
	s.r.push(ref)
	s.handles = append(s.handles, fzHandle{s.e.AtKeyed(at, lane, seq, lane, fzFire, s, ref), ref})
}

// drain checks that the events the engine fired since the last call are
// the ones the reference pops, in that order, with the same keys.
func (s *fzState) drain(want []*refEvent) error {
	if len(s.fired) != len(want) {
		return fmt.Errorf("fired %d events, reference %d", len(s.fired), len(want))
	}
	for i, ref := range want {
		if s.fired[i] != ref.id {
			got := s.handles[s.fired[i]].ref
			return fmt.Errorf("pop %d: got (at %d, lane %d, seq %d), want (at %d, lane %d, seq %d)",
				i, got.at, got.k1, got.seq, ref.at, ref.k1, ref.seq)
		}
	}
	s.fired = s.fired[:0]
	return nil
}

func (s *fzState) check() error {
	if got, want := s.e.Pending(), len(s.r.events); got != want {
		return fmt.Errorf("Pending = %d, reference %d", got, want)
	}
	if got, want := s.e.maxPending, s.r.maxPending; got != want {
		return fmt.Errorf("MaxPending = %d, reference %d", got, want)
	}
	if got, want := s.e.slots(), s.r.maxPending; got != want {
		return fmt.Errorf("event slots = %d, want the pending high-water mark %d", got, want)
	}
	if s.e.Now() != s.r.now {
		return fmt.Errorf("Now = %d, reference %d", s.e.Now(), s.r.now)
	}
	return nil
}

// checkHandles compares the liveness of handles[from:] with the reference.
func (s *fzState) checkHandles(from int) error {
	for i, h := range s.handles[from:] {
		live := h.ref.index >= 0
		if h.h.Cancelled() == live {
			return fmt.Errorf("handle %d: Cancelled = %v, reference live = %v", from+i, h.h.Cancelled(), live)
		}
		if live && h.h.At() != h.ref.at {
			return fmt.Errorf("handle %d: At = %d, want %d", from+i, h.h.At(), h.ref.at)
		}
	}
	return nil
}

// runQueueOps replays data against the engine and the reference.
func runQueueOps(data []byte) error {
	const maxOps = 4096
	s := &fzState{e: New()}
	for n := 0; len(data) >= 4 && n < maxOps; n, data = n+1, data[4:] {
		code, a, val := data[0]%fzOpcodes, data[1], uint16(data[2])<<8|uint16(data[3])
		var err error
		switch code {
		default: // fzPush
			s.push(s.r.now+fzDelta(a, val), false, 0)
		case fzKeyed:
			s.push(s.r.now+fzDelta(a, val), true, 1+uint64(a/5)%3)
		case fzCancel:
			if len(s.handles) == 0 {
				continue
			}
			h := s.handles[int(val)%len(s.handles)] // live, fired or cancelled
			h.h.Cancel()
			s.r.cancel(h.ref)
			// Every handle each eighth op, else the most recent few: a
			// stale cancel must not touch the slot's new occupant.
			from := 0
			if n%8 != 0 {
				from = max(0, len(s.handles)-8)
			}
			err = s.checkHandles(from)
		case fzPop:
			var want []*refEvent
			for i := 0; i <= int(a%8); i++ {
				ref := s.r.step()
				if stepped := s.e.Step(); stepped != (ref != nil) {
					return fmt.Errorf("op %d: Step = %v, reference has event = %v", n, stepped, ref != nil)
				}
				if ref != nil {
					want = append(want, ref)
				}
			}
			err = s.drain(want)
		case fzPeek:
			if got, want := s.e.nextAt(), s.r.nextAt(); got != want {
				err = fmt.Errorf("nextAt = %d, reference %d", got, want)
			}
		case fzRun:
			end := s.r.now + fzDelta(a/2, val)
			var want []*refEvent
			if a%2 == 0 {
				for s.r.nextAt() <= end {
					want = append(want, s.r.step())
				}
				s.r.now = end
				s.e.RunUntil(end)
			} else {
				for s.r.nextAt() < end {
					want = append(want, s.r.step())
				}
				s.r.now, s.r.curCtx = end, 0
				s.e.runWindow(end)
			}
			err = s.drain(want)
		}
		if err == nil {
			err = s.check()
		}
		if err != nil {
			return fmt.Errorf("op %d (%d %d %d): %w", n, code, a, val, err)
		}
	}
	// Drain: whatever is left pops in reference order.
	var want []*refEvent
	for ref := s.r.step(); ref != nil; ref = s.r.step() {
		want = append(want, ref)
	}
	s.e.Run()
	if err := s.drain(want); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	if err := s.check(); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	return s.checkHandles(0)
}

var queueSeeds = map[string][]byte{
	"same-time ties across lanes": cat(
		op(fzKeyed, keyedArg(dtRing, 3), 500), op(fzKeyed, keyedArg(dtRing, 1), 500),
		op(fzPush, dtRing, 500), op(fzKeyed, keyedArg(dtRing, 2), 500),
		op(fzKeyed, keyedArg(dtRing, 1), 500), op(fzPush, dtRing, 500),
		op(fzKeyed, keyedArg(dtHuge, 2), 1), op(fzPush, dtHuge, 1), op(fzKeyed, keyedArg(dtHuge, 1), 1),
		op(fzPop, 7, 0), op(fzPop, 7, 0)),
	"ring wrap over many revolutions": rep(200,
		op(fzPush, dtRing, 40000), op(fzPush, dtRing, 65535), op(fzPush, dtBucket, 7),
		op(fzPush, dtFar, 3), op(fzPop, 1, 0), op(fzRun, 2*dtRing, 30000)),
	"cancel in each location": cat(
		// ring: 0, 1, 2 share a bucket in that order, 3 has its own
		op(fzPush, dtRing, 1000), op(fzPush, dtRing, 1000), op(fzPush, dtRing, 1001), op(fzPush, dtRing, 5000),
		op(fzCancel, 0, 1), op(fzCancel, 0, 2), // the middle, then the tail
		op(fzPush, dtRing, 1002), // 4 is appended behind 0
		op(fzCancel, 0, 0),       // the head, with a successor
		op(fzPush, dtRing, 1003), // 5 is appended behind 4
		// far: 6, 7, 8, with 7 at the root
		op(fzPush, dtFar, 10), op(fzPush, dtFar, 5), op(fzPush, dtHuge, 0), op(fzCancel, 0, 7),
		op(fzCancel, 0, 4), op(fzCancel, 0, 5), // the bucket empties
		op(fzPush, dtRing, 1000), // 9 reuses it
		op(fzPeek, 0, 0),         // loads 9's slot: the cursor is now past the clock
		// 10 lands before the loaded slot and steps the cursor back; 11
		// and 12 join 10's slot
		op(fzPush, dtZero, 0), op(fzPush, dtBucket, 9), op(fzPush, dtBucket, 3),
		op(fzCancel, 0, 10), op(fzCancel, 0, 12), op(fzCancel, 0, 3), op(fzCancel, 0, 8),
		op(fzPop, 7, 0)),
	"bucket list survives unlinks at both ends": cat(
		op(fzPush, dtRing, 1000), op(fzPush, dtRing, 1001), op(fzPush, dtRing, 1002), // 0 1 2
		op(fzCancel, 0, 2), op(fzPush, dtRing, 1003), // tail out, 3 in
		op(fzCancel, 0, 0), op(fzPush, dtRing, 1004), // head out, 4 in
		op(fzCancel, 0, 3), op(fzPush, dtRing, 1005), // middle out, 5 in
		op(fzPop, 7, 0)),
	"cancel inside the loaded slot": cat(
		// 0..4 share a slot; the peek loads them in the order 3 1 4 0 2
		op(fzPush, dtRing, 1003), op(fzPush, dtRing, 1001), op(fzPush, dtRing, 1002),
		op(fzPush, dtRing, 1000), op(fzPush, dtRing, 1004), op(fzPeek, 0, 0),
		op(fzCancel, 0, 4), op(fzPop, 1, 0), // the middle one, then the two before it
		op(fzPush, dtZero, 0), op(fzPush, dtBucket, 2), // 5 and 6 join it: before 2, and behind 0 in 0's nanosecond
		op(fzCancel, 0, 0), op(fzPop, 7, 0)), // the head
	"a slot of hundreds, shuffled": cat(shuffledSlot(300), op(fzCancel, 0, 7), op(fzCancel, 0, 150),
		rep(50, op(fzPop, 7, 0))),
	"stale cancel after slot reuse": cat(
		op(fzPush, dtRing, 100), op(fzPop, 0, 0), // 0 fires, slot freed
		op(fzPush, dtRing, 200), op(fzCancel, 0, 0), // 1 reuses it; stale cancel of 0
		op(fzCancel, 0, 1), op(fzPush, dtFar, 1), op(fzCancel, 0, 1), op(fzCancel, 0, 0),
		op(fzPop, 3, 0)),
	"push behind the cursor after a peek": cat(
		op(fzPush, dtRing, 50000), op(fzPeek, 0, 0),
		op(fzPush, dtZero, 0), op(fzPush, dtRing, 49999), op(fzKeyed, keyedArg(dtRing, 1), 50000),
		op(fzPush, dtRing, 50001), op(fzRun, 2*dtRing+1, 50000), op(fzPop, 7, 0)),
	"far events pulled when their slot is next": cat(
		op(fzPush, dtFar, 0), op(fzPush, dtFar, 0), op(fzPush, dtFar, 1), op(fzPush, dtHuge, 9),
		op(fzRun, 2*dtRing, 65000), op(fzPush, dtRing, 600), op(fzPush, dtRing, 400),
		op(fzPop, 7, 0)),
	"push into a draining nanosecond of many ties, on a smaller lane": cat(
		rep(20, op(fzKeyed, keyedArg(dtRing, 3), 500), op(fzKeyed, keyedArg(dtRing, 2), 500)),
		op(fzPop, 0, 0), // the slot is loaded and draining at 500
		op(fzKeyed, keyedArg(dtZero, 1), 0), op(fzKeyed, keyedArg(dtZero, 2), 0),
		op(fzPush, dtZero, 0), op(fzKeyed, keyedArg(dtBucket, 1), 3),
		op(fzPop, 7, 0), op(fzKeyed, keyedArg(dtZero, 1), 0), rep(6, op(fzPop, 7, 0))),
	"cancel the head, a middle entry and the tail of a loaded nanosecond": cat(
		// 0..4 share a nanosecond, 5 is one later; the peek loads them
		// ahead of the clock, then the head, a middle entry and the tail go
		rep(5, op(fzPush, dtRing, 700)), op(fzPush, dtRing, 701), op(fzPeek, 0, 0),
		op(fzCancel, 0, 0), op(fzCancel, 0, 2), op(fzCancel, 0, 4),
		// 6 and 7 join at the tail; then the tail and the head go, and 8 joins
		op(fzPush, dtRing, 700), op(fzKeyed, keyedArg(dtRing, 1), 700),
		op(fzCancel, 0, 7), op(fzCancel, 0, 1), op(fzPush, dtRing, 700),
		op(fzPop, 7, 0)),
	"step back from a far slot past the clock, dtZero first": cat(
		op(fzPush, dtFar, 30000), op(fzPeek, 0, 0), // loads slot 4774, 4.7 windows ahead
		op(fzPush, dtFar, 38128), // slot 5790: near the end of the window past that slot
		op(fzPush, dtZero, 0), op(fzPush, dtRing, 30000), op(fzPush, dtFar, 38127),
		op(fzPop, 7, 0)),
	"step back from a far slot past the clock, dtRing first": cat(
		op(fzPush, dtFar, 30000), op(fzKeyed, keyedArg(dtFar, 2), 30000), op(fzPeek, 0, 0),
		op(fzPush, dtFar, 38128), op(fzPush, dtRing, 65000), op(fzPeek, 0, 0),
		op(fzPush, dtRing, 20), op(fzPush, dtFar, 38128), op(fzRun, 2*dtRing, 60000),
		op(fzPop, 7, 0)),
	"far and ring events share a nanosecond": cat(
		// the pop moves the window over the far events' slot, and two ring
		// events join their nanosecond with later seqs on the same lanes
		op(fzPush, dtFar, 0), op(fzKeyed, keyedArg(dtFar, 1), 0), op(fzPush, dtRing, 100),
		op(fzPop, 0, 0), op(fzPush, dtRing, 65436), op(fzKeyed, keyedArg(dtRing, 1), 65436),
		op(fzPop, 7, 0)),
	"one slot split between ring and far": cat(
		op(fzPush, dtFar, 0), op(fzPush, dtFar, 1), op(fzPush, dtRing, 100), op(fzPop, 0, 0),
		// the window now reaches the far events' slot: this one joins it through the ring
		op(fzPush, dtRing, 65440), op(fzPush, dtHuge, 0), op(fzPop, 7, 0)),
}

// FuzzQueueOrder drives the engine and the container/heap reference with
// the same pushes, cancels, pops, peeks and clock jumps, and requires the
// same pop order on (at, lane, seq), the same Pending and MaxPending,
// as many event slots as the reference's pending high-water mark, and
// the same liveness of every Handle ever issued.
func FuzzQueueOrder(f *testing.F) {
	for _, seed := range queueSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueueSeeds names the seed corpus, so a failure says which case.
func TestQueueSeeds(t *testing.T) {
	for name, seed := range queueSeeds {
		if err := runQueueOps(seed); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQueueRandomOps runs long pseudo-random sequences, which reach
// depths and revolutions the short fuzz seeds do not.
func TestQueueRandomOps(t *testing.T) {
	r := NewRand(1)
	for round := 0; round < 50; round++ {
		data := make([]byte, 4*4096)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		if err := runQueueOps(data); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestEngineFootprint pins the fixed per-engine cost (far and the tie
// scratch start empty): soak builds an engine per scenario and every
// NewGroup adds K.
func TestEngineFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size > 16<<10 {
		var q queue
		t.Errorf("Engine is %d bytes, want <= 16 KB: %d B of bucket heads, %d B of loaded-slot list heads and tails, %d B of bitmap",
			size, unsafe.Sizeof(q.bucket), unsafe.Sizeof(q.heads)+unsafe.Sizeof(q.tails), unsafe.Sizeof(q.l0)+unsafe.Sizeof(q.l1)+unsafe.Sizeof(q.mask))
	}
}

// --- benchmarks mirroring bench's sim.hold_ns_* and sim.cancel_ns ---

type benchHolder struct {
	e *Engine
	r *Rand
}

func benchHoldFire(a, _ any) {
	h := a.(*benchHolder)
	h.e.AfterCall(Time(1+h.r.Intn(1000)), benchHoldFire, h, nil)
}

// benchDrainFire schedules its successor 0–56 ns ahead on an 8 ns grid,
// on its own lane: over half land in the slot being drained.
func benchDrainFire(a, _ any) {
	h := a.(*benchHolder)
	h.e.AfterCall(Time(8*h.r.Intn(8)), benchDrainFire, h, nil)
}

// BenchmarkHold is one pop plus one push at a constant pending depth.
func BenchmarkHold(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"1e2", 100}, {"1e4", 10_000}, {"1e6", 1_000_000}} {
		depth := c.depth
		b.Run(c.name, func(b *testing.B) {
			h := &benchHolder{e: New(), r: NewRand(1)}
			for i := 0; i < depth; i++ {
				h.e.AtCall(Time(1+h.r.Intn(1000)), benchHoldFire, h, nil)
			}
			for i := 0; i < depth/4; i++ { // move off the initial time spread
				h.e.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.e.Step()
			}
		})
	}
	// drain: 512 pending events on 16 lanes over about eight timestamps,
	// dozens of ties per nanosecond as on the k = 16 fabric, where most
	// pushes land in the loaded slot.
	b.Run("drain", func(b *testing.B) {
		h := &benchHolder{e: New(), r: NewRand(1)}
		for i := uint64(0); i < 512; i++ {
			h.e.AtKeyed(Time(8*h.r.Intn(8)), i%16, i, i%16, benchDrainFire, h, nil)
		}
		for i := 0; i < 512; i++ {
			h.e.Step()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.e.Step()
		}
	})
}

func benchNop(_, _ any) {}

// BenchmarkCancel is one schedule plus one cancel at pending depth 1e4.
func BenchmarkCancel(b *testing.B) {
	e, r := New(), NewRand(1)
	for i := 0; i < 10_000; i++ {
		e.AtCall(Time(1+r.Intn(1000)), benchNop, nil, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtCall(Time(1+r.Intn(1000)), benchNop, nil, nil).Cancel()
	}
}
