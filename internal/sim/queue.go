package sim

import (
	"math/bits"
	"slices"
)

// The pending-event set: a fixed ring of unsorted near-future buckets,
// drained one slot at a time into a sorted run, with two key-inline
// 4-ary heaps for what the ring cannot hold (DESIGN.md §15).
//
// Virtual time is cut into slots of 1<<slotShift ns. cursor is the first
// slot not yet loaded; an event with slot s lives in
//
//	ring   if cursor <= s < cursor+ringSize: linked, unsorted, into
//	       bucket s&ringMask
//	far    if s >= cursor+ringSize: a heap on (at, k1, seq)
//	run    if s < cursor and it was pending when its slot was loaded: the
//	       slot's events in order, popped from the front
//	late   if s < cursor and it was pushed after that: a heap
//
// Everything in run and late is earlier than everything in the ring and
// in far, so the smaller of run's head and late's root is the minimum of
// the queue. When both are empty the cursor jumps to the earliest
// occupied slot — the next non-empty bucket or far's minimum, whichever
// is first — and only that slot's events are loaded: spread over one
// list per nanosecond, emitted in ascending time, with only the ties of
// one nanosecond sorted. The ring window is exactly ringSize slots wide,
// so a bucket never mixes slots, and far events are pulled when their
// slot becomes the minimum, never migrated ahead of time.
//
// The constants are constants, not options; DESIGN.md §15 has the
// measurements. 16, 32 and 64 ns slots measure level; 64 is kept because
// 1024 buckets of it reach 65.5 µs — serialization, propagation, pacing
// and the 40 µs CP ticker — at a fixed footprint near 8 KB per engine.
const (
	slotShift = 6
	ringSize  = 1024
	ringMask  = ringSize - 1
)

// Where a scheduled event lives; locNone once popped, cancelled or free.
const (
	locNone uint8 = iota
	locRun
	locLate
	locRing
	locFar
)

type queue struct {
	run    []entry // the loaded slot, sorted; run[head:] is still to pop
	head   int     // run[head] is live unless the run is exhausted
	late   heap4   // events pushed behind the cursor
	far    heap4   // events beyond the ring
	n      int     // pending events in all four
	cursor int64   // first slot not yet loaded

	// Two-level occupancy bitmap over the buckets: bit b of l0 is set
	// while bucket b is non-empty, bit w of l1 while l0[w] is non-zero.
	l1 uint64
	l0 [ringSize / 64]uint64
	// List heads: a bucket is a stack of events linked through
	// event.next/prev, the latest scheduled on top.
	bucket [ringSize]*event
}

func slotOf(t Time) int64 { return int64(t) >> slotShift }

func (q *queue) len() int { return q.n }

func (q *queue) push(ev *event) {
	q.n++
	slot := slotOf(ev.at)
	switch d := slot - q.cursor; {
	case d < 0:
		// Behind the cursor: peekAt may have loaded a slot past the
		// clock, and a slot being drained still takes new events.
		ev.loc = locLate
		q.late.push(ev)
	case d < ringSize:
		b := uint(slot) & ringMask
		head := q.bucket[b]
		ev.loc = locRing
		ev.next = head
		if head != nil {
			head.prev = ev
		} else {
			q.l0[b>>6] |= 1 << (b & 63)
			q.l1 |= 1 << (b >> 6)
		}
		q.bucket[b] = ev
	default:
		ev.loc = locFar
		q.far.push(ev)
	}
}

// remove takes a pending event out of whichever structure holds it.
func (q *queue) remove(ev *event) {
	q.n--
	switch ev.loc {
	case locRun:
		// The event's slot is free at once; its emptied entry stays in
		// the run until head passes it.
		q.run[ev.index].ev = nil
		if ev.index == q.head {
			q.skipDead()
		}
	case locLate:
		q.late.remove(ev.index)
	case locFar:
		q.far.remove(ev.index)
	case locRing:
		next, prev := ev.next, ev.prev
		if next != nil {
			next.prev = prev
		}
		if prev != nil {
			prev.next = next
		} else {
			b := uint(slotOf(ev.at)) & ringMask
			q.bucket[b] = next
			if next == nil {
				q.clearBucket(b)
			}
		}
		ev.next, ev.prev = nil, nil
	}
	ev.loc = locNone
}

func (q *queue) clearBucket(b uint) {
	w := b >> 6
	q.l0[w] &^= 1 << (b & 63)
	if q.l0[w] == 0 {
		q.l1 &^= 1 << w
	}
}

// skipDead moves head past the entries of cancelled events.
func (q *queue) skipDead() {
	for q.head < len(q.run) && q.run[q.head].ev == nil {
		q.head++
	}
}

// pop removes and returns the earliest pending event, nil when empty.
func (q *queue) pop() *event {
	if q.head == len(q.run) && len(q.late) == 0 {
		if q.n == 0 {
			return nil
		}
		q.advance()
	}
	q.n--
	var ev *event
	if q.head < len(q.run) && (len(q.late) == 0 || !q.late[0].less(&q.run[q.head])) {
		ev = q.run[q.head].ev
		q.head++
		q.skipDead()
	} else {
		ev = q.late.pop()
	}
	ev.loc = locNone
	return ev
}

// peekAt returns the earliest pending timestamp, maxTime when empty. It
// may load the next slot, which moves the cursor but no event's order.
func (q *queue) peekAt() Time {
	if q.head == len(q.run) && len(q.late) == 0 {
		if q.n == 0 {
			return maxTime
		}
		q.advance()
	}
	if q.head == len(q.run) {
		return q.late[0].at
	}
	at := q.run[q.head].at
	if len(q.late) > 0 && q.late[0].at < at {
		at = q.late[0].at
	}
	return at
}

// advance loads the earliest occupied slot into the exhausted run. The
// caller guarantees the ring or far holds at least one event.
//
// The slot's events, from its bucket and from far alike, are spread over
// one list per nanosecond of the slot, which the occupancy mask then
// emits in ascending time; only each nanosecond's own ties are sorted.
func (q *queue) advance() {
	const none = int64(1<<63 - 1)
	ringSlot, farSlot := none, none
	if q.l1 != 0 {
		ringSlot = q.nextRingSlot()
	}
	if len(q.far) > 0 {
		farSlot = slotOf(q.far[0].at)
	}
	slot := min(ringSlot, farSlot)
	q.cursor = slot + 1
	var heads [1 << slotShift]*event // linked through event.next
	var mask uint64
	if ringSlot == slot {
		b := uint(slot) & ringMask
		ev := q.bucket[b]
		q.bucket[b] = nil
		q.clearBucket(b)
		for ev != nil {
			next := ev.next
			ns := uint(ev.at) & (1<<slotShift - 1)
			ev.next, ev.prev = heads[ns], nil
			heads[ns] = ev
			mask |= 1 << ns
			ev = next
		}
	}
	if farSlot == slot {
		for len(q.far) > 0 && slotOf(q.far[0].at) == slot {
			ev := q.far.pop()
			ns := uint(ev.at) & (1<<slotShift - 1)
			ev.next = heads[ns]
			heads[ns] = ev
			mask |= 1 << ns
		}
	}
	run := q.run[:0]
	for ; mask != 0; mask &= mask - 1 {
		start := len(run)
		for ev := heads[bits.TrailingZeros64(mask)]; ev != nil; {
			next := ev.next
			ev.next, ev.index, ev.loc = nil, len(run), locRun
			run = append(run, entryOf(ev))
			ev = next
		}
		if len(run)-start > 1 {
			sortEntries(run[start:])
			for i := start; i < len(run); i++ {
				run[i].ev.index = i
			}
		}
	}
	q.run, q.head = run, 0
}

// sortEntries orders the events of one nanosecond by (k1, seq). On the
// paper's fabric that is one to three events; the k = 16 fabric's
// lock-step flows put dozens or more in one nanosecond, where an
// insertion sort alone would be quadratic.
func sortEntries(s []entry) {
	if len(s) > 64 {
		slices.SortFunc(s, func(a, b entry) int {
			switch {
			case a.less(&b):
				return -1
			case b.less(&a):
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i
		for ; j > 0 && x.less(&s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// nextRingSlot returns the slot of the first non-empty bucket at or after
// the cursor, searching the ring circularly. The ring must be non-empty.
func (q *queue) nextRingSlot() int64 {
	i := uint(q.cursor) & ringMask
	w := i >> 6
	var b uint
	if m := q.l0[w] >> (i & 63); m != 0 {
		b = i + uint(bits.TrailingZeros64(m))
	} else {
		m1 := q.l1 &^ (1<<(w+1) - 1) // words after w
		if m1 == 0 {
			m1 = q.l1 // wrap: words up to w, w's own low bits included
		}
		w = uint(bits.TrailingZeros64(m1))
		b = w<<6 + uint(bits.TrailingZeros64(q.l0[w]))
	}
	return q.cursor + int64((b-i)&ringMask)
}

// entry is one element of the run or of a heap. The ordering key is
// copied out of the event so that a comparison never dereferences it.
type entry struct {
	at  Time
	k1  uint64
	seq uint64
	ev  *event
}

func entryOf(ev *event) entry { return entry{ev.at, ev.k1, ev.seq, ev} }

func (a *entry) less(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.seq < b.seq
}

// heap4 is a 4-ary min-heap on (at, k1, seq); each event tracks its own
// position in event.index so that remove needs no search.
type heap4 []entry

func (h *heap4) push(ev *event) {
	*h = append(*h, entry{})
	h.up(len(*h)-1, entryOf(ev))
}

func (h *heap4) pop() *event {
	ev := (*h)[0].ev
	h.remove(0)
	return ev
}

// remove deletes the element at index i by moving the last one into the
// hole and restoring heap order around it.
func (h *heap4) remove(i int) {
	s := *h
	n := len(s) - 1
	x := s[n]
	s[n] = entry{}
	*h = s[:n]
	if i == n {
		return
	}
	if i > 0 && x.less(&s[(i-1)/4]) {
		h.up(i, x)
	} else {
		h.down(i, x)
	}
}

// up places x at or above the hole i.
func (h heap4) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// down places x at or below the hole i.
func (h heap4) down(i int, x entry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(&h[m]) {
				m = j
			}
		}
		if !h[m].less(&x) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = x
	x.ev.index = i
}
