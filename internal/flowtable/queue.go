package flowtable

import (
	"math/bits"
	"slices"

	"rocc/internal/sim"
)

// QueueTable is the paper's default flow table (§3.4 option 1): it tracks
// exactly the flows that currently have packets in the egress queue, so
// its size is bounded by the queue size. Feedback goes to every flow
// contributing to the standing queue.
//
// It sits on every enqueue and dequeue of a RoCC port, so each call costs
// one probe of an open-addressed index instead of map operations: entries
// live in one dense slice in insertion order (a removal moves the last
// entry into the hole, which is exactly orderedSet's order, so recipients
// are listed as before), and index holds entry position + 1 per slot, 0
// for an empty slot. The index is a power of two in size, kept at most
// half full, and starts empty: most ports of a large fabric never queue.
type QueueTable struct {
	entries []queueEntry
	index   []int32
	shift   uint8 // 64 - log2(len(index)): home slots take the hash's top bits
}

type queueEntry struct {
	flow  FlowID
	bytes int
}

// NewQueueTable returns an empty queue-occupancy flow table.
func NewQueueTable() *QueueTable { return &QueueTable{} }

// home returns the slot a flow's probe sequence starts at (Fibonacci
// hashing: dense flow IDs spread over the whole index).
func (t *QueueTable) home(flow FlowID) int {
	return int(uint64(flow) * 0x9e3779b97f4a7c15 >> t.shift)
}

// lookup returns the index slot holding flow and the flow's entry
// position, or the empty slot its insertion would take and -1.
func (t *QueueTable) lookup(flow FlowID) (slot, pos int) {
	if len(t.index) == 0 {
		return -1, -1
	}
	mask := len(t.index) - 1
	for i := t.home(flow); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, -1
		}
		if t.entries[e-1].flow == flow {
			return i, int(e - 1)
		}
	}
}

// OnEnqueue implements Table.
func (t *QueueTable) OnEnqueue(now sim.Time, flow FlowID, bytes int) {
	slot, pos := t.lookup(flow)
	if pos >= 0 {
		t.entries[pos].bytes += bytes
		return
	}
	t.entries = append(t.entries, queueEntry{flow, bytes})
	if 2*len(t.entries) > len(t.index) {
		t.grow()
		return
	}
	t.index[slot] = int32(len(t.entries))
}

// grow doubles the index (8 slots at first) and re-files every entry.
func (t *QueueTable) grow() {
	size := max(8, 2*len(t.index))
	t.index = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for pos, e := range t.entries {
		i := t.home(e.flow)
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(pos + 1)
	}
}

// OnDequeue implements Table.
func (t *QueueTable) OnDequeue(now sim.Time, flow FlowID, bytes int) {
	slot, pos := t.lookup(flow)
	if pos < 0 {
		return
	}
	if b := t.entries[pos].bytes - bytes; b > 0 {
		t.entries[pos].bytes = b
		return
	}
	t.remove(slot, pos)
}

// remove drops the entry at pos, filed at slot. Backward-shift deletion
// keeps every probe sequence unbroken without tombstones; then the last
// entry moves into the hole and its slot is re-pointed.
func (t *QueueTable) remove(slot, pos int) {
	mask := len(t.index) - 1
	i := slot
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		e := t.index[j]
		if e == 0 {
			break
		}
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.entries[e-1].flow))&mask >= (j-i)&mask {
			t.index[i] = e
			i = j
		}
	}
	t.index[i] = 0

	last := len(t.entries) - 1
	if pos != last {
		moved := t.entries[last]
		t.entries[pos] = moved
		for k := t.home(moved.flow); ; k = (k + 1) & mask {
			if t.index[k] == int32(last+1) {
				t.index[k] = int32(pos + 1)
				break
			}
		}
	}
	t.entries = t.entries[:last]
}

// Flows implements Table.
func (t *QueueTable) Flows(now sim.Time, dst []FlowID) []FlowID {
	dst = slices.Grow(dst, len(t.entries))
	for _, e := range t.entries {
		dst = append(dst, e.flow)
	}
	return dst
}

// Len implements Table.
func (t *QueueTable) Len() int { return len(t.entries) }
