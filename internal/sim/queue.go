package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The pending-event set, in three places (DESIGN.md §15). Virtual time
// is cut into slots of 1<<slotShift ns; cursor is the first slot not yet
// loaded. An event with slot s lives in
//
//	slot   if s == cursor-1: the loaded slot, one list per nanosecond,
//	       each in (k1, seq) order
//	ring   if cursor <= s < cursor+ringSize: bucket s&ringMask, unsorted
//	far    otherwise (s >= cursor): a 4-ary heap on (at, k1, seq)
//
// The head of the lowest occupied list is the minimum. When the loaded
// slot is empty, the cursor jumps past the earliest occupied slot, the
// next bucket's or far's minimum's, and that slot is loaded. A push
// before the loaded slot (peekAt may load past the clock) steps the
// cursor back. The constants are not options; §15 has their measurements.
const (
	slotShift = 6
	ringSize  = 1024
	ringMask  = ringSize - 1
	nsMask    = 1<<slotShift - 1
)

// Where a scheduled event lives; locNone once popped, cancelled or free.
const (
	locNone uint8 = iota
	locSlot
	locRing
	locFar
)

type queue struct {
	far    heap4
	n      int   // pending events in all three places
	cursor int64 // first slot not yet loaded

	// The loaded slot: list i holds its events of nanosecond i, linked
	// through event.next/prev; bit i of mask is set while it is
	// non-empty. ties is advance's scratch for sorting one list.
	mask  uint64
	heads [1 << slotShift]*event
	tails [1 << slotShift]*event
	ties  []entry

	// Two-level occupancy bitmap over the buckets: bit b of l0 is set
	// while bucket b is non-empty, bit w of l1 while l0[w] is non-zero.
	l1 uint64
	l0 [ringSize / 64]uint64
	// List heads: a bucket is a stack of events linked through
	// event.next/prev, the latest scheduled on top.
	bucket [ringSize]*event
}

func slotOf(t Time) int64 { return int64(t) >> slotShift }

func (q *queue) push(ev *event) {
	q.n++
	if slot := slotOf(ev.at); slot < q.cursor {
		if slot < q.cursor-1 {
			q.stepBack(slot)
		}
		q.insert(ev)
		return
	}
	q.place(ev)
}

// place links an event at or after the cursor into its bucket, or into
// far when the ring does not reach its slot.
func (q *queue) place(ev *event) {
	slot := slotOf(ev.at)
	if slot-q.cursor >= ringSize {
		ev.loc = locFar
		q.far.push(ev)
		return
	}
	b := uint(slot) & ringMask
	head := q.bucket[b]
	ev.loc, ev.next, ev.prev = locRing, head, nil
	if head != nil {
		head.prev = ev
	} else {
		q.l0[b>>6] |= 1 << (b & 63)
		q.l1 |= 1 << (b >> 6)
	}
	q.bucket[b] = ev
}

// insert links an event of the loaded slot into its nanosecond's list
// after the last entry that precedes it, walking from the tail.
func (q *queue) insert(ev *event) {
	ns := uint(ev.at) & nsMask
	p := q.tails[ns]
	for p != nil && (ev.k1 < p.k1 || ev.k1 == p.k1 && ev.seq < p.seq) {
		p = p.prev
	}
	q.link(ev, ns, p)
}

// link splices an event into list ns after p, or at its head if p is nil.
func (q *queue) link(ev *event, ns uint, p *event) {
	ev.loc, ev.prev = locSlot, p
	if p == nil {
		ev.next = q.heads[ns]
		q.heads[ns] = ev
		q.mask |= 1 << ns
	} else {
		ev.next, p.next = p.next, ev
	}
	if ev.next == nil {
		q.tails[ns] = ev
	} else {
		ev.next.prev = ev
	}
}

// stepBack makes slot the loaded one when a push lands before a slot
// that peekAt loaded ahead of the clock; the slots in between are empty.
// The window moves back with the cursor, so buckets it no longer reaches
// go to far first; then the old loaded slot returns to the ring or far.
func (q *queue) stepBack(slot int64) {
	old := q.cursor
	q.cursor = slot + 1
	for w1 := q.l1; w1 != 0; w1 &= w1 - 1 {
		w := uint(bits.TrailingZeros64(w1))
		for m := q.l0[w]; m != 0; m &= m - 1 {
			if b := w<<6 | uint(bits.TrailingZeros64(m)); old+int64((b-uint(old))&ringMask) >= q.cursor+ringSize {
				q.replace(q.take(b))
			}
		}
	}
	for ; q.mask != 0; q.mask &= q.mask - 1 {
		ns := bits.TrailingZeros64(q.mask)
		q.replace(q.heads[ns])
		q.heads[ns], q.tails[ns] = nil, nil
	}
}

// replace places again each event of a chain linked through next.
func (q *queue) replace(ev *event) {
	for ev != nil {
		next := ev.next
		q.place(ev)
		ev = next
	}
}

// take empties bucket b and returns its chain.
func (q *queue) take(b uint) *event {
	ev := q.bucket[b]
	q.bucket[b] = nil
	w := b >> 6
	q.l0[w] &^= 1 << (b & 63)
	if q.l0[w] == 0 {
		q.l1 &^= 1 << w
	}
	return ev
}

// remove takes a pending event out of whichever structure holds it.
func (q *queue) remove(ev *event) {
	q.n--
	next, prev := ev.next, ev.prev
	switch ev.loc {
	case locFar:
		q.far.remove(ev.index)
	case locSlot:
		ns := uint(ev.at) & nsMask
		if next != nil {
			next.prev = prev
		} else {
			q.tails[ns] = prev
		}
		if prev != nil {
			prev.next = next
		} else if q.heads[ns] = next; next == nil {
			q.mask &^= 1 << ns
		}
	case locRing:
		if next != nil {
			next.prev = prev
		}
		if prev != nil {
			prev.next = next
		} else if b := uint(slotOf(ev.at)) & ringMask; next == nil {
			q.take(b)
		} else {
			q.bucket[b] = next
		}
	}
	ev.next, ev.prev, ev.loc = nil, nil, locNone
}

// first returns the earliest pending event, nil when the queue is empty.
// It may load the next slot, which moves the cursor but no event's order.
func (q *queue) first() *event {
	if q.mask == 0 {
		if q.n == 0 {
			return nil
		}
		q.advance()
	}
	return q.heads[bits.TrailingZeros64(q.mask)]
}

// peekAt returns the earliest pending timestamp, maxTime when empty.
func (q *queue) peekAt() Time {
	if ev := q.first(); ev != nil {
		return ev.at
	}
	return maxTime
}

// advance loads the earliest occupied slot into the empty loaded slot.
// The caller guarantees the ring or far holds an event. The slot's
// events, from its bucket and from far alike, are stacked on their
// nanoseconds' lists; then each list of two or more is sorted once.
func (q *queue) advance() {
	slot := int64(1<<63 - 1)
	if len(q.far) > 0 {
		slot = slotOf(q.far[0].at)
	}
	var ev *event // the slot's events, chained through next
	if q.l1 != 0 {
		if s := q.nextRingSlot(); s <= slot {
			slot, ev = s, q.take(uint(s)&ringMask)
		}
	}
	q.cursor = slot + 1
	for len(q.far) > 0 && slotOf(q.far[0].at) == slot {
		f := q.far[0].ev
		q.far.remove(0)
		f.next, ev = ev, f
	}
	for ev != nil {
		next := ev.next
		q.link(ev, uint(ev.at)&nsMask, nil)
		ev = next
	}
	for m := q.mask; m != 0; m &= m - 1 {
		ns := uint(bits.TrailingZeros64(m))
		if q.heads[ns].next == nil {
			continue
		}
		ties := q.ties[:0]
		for ev := q.heads[ns]; ev != nil; ev = ev.next {
			ties = append(ties, entryOf(ev))
		}
		sortEntries(ties)
		q.heads[ns], q.tails[ns] = nil, nil
		for _, t := range ties {
			q.link(t.ev, ns, q.tails[ns])
		}
		q.ties = ties
	}
}

// sortEntries orders the events of one nanosecond by (k1, seq): one to
// three on the paper's fabric, but hundreds on the k = 16 fabric's
// lock-step flows, where an insertion sort alone would be quadratic.
func sortEntries(s []entry) {
	if len(s) > 64 {
		slices.SortFunc(s, func(a, b entry) int { return cmp.Or(cmp.Compare(a.k1, b.k1), cmp.Compare(a.seq, b.seq)) })
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

// entry is one element of far or of advance's tie sort. The ordering key
// is copied out of the event so that a comparison never dereferences it.
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
