package flowtable

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"rocc/internal/sim"
)

// refQueueTable is QueueTable as it was before the open-addressed index:
// an orderedSet plus a byte-balance map. It is the oracle the dense table
// must match call for call, including the order Flows reports.
type refQueueTable struct {
	set   orderedSet
	bytes map[FlowID]int
}

func newRefQueueTable() *refQueueTable {
	return &refQueueTable{set: newOrderedSet(), bytes: make(map[FlowID]int)}
}

func (t *refQueueTable) OnEnqueue(flow FlowID, bytes int) {
	if t.bytes[flow] == 0 {
		t.set.add(flow)
	}
	t.bytes[flow] += bytes
}

func (t *refQueueTable) OnDequeue(flow FlowID, bytes int) {
	b, ok := t.bytes[flow]
	if !ok {
		return
	}
	b -= bytes
	if b <= 0 {
		delete(t.bytes, flow)
		t.set.remove(flow)
		return
	}
	t.bytes[flow] = b
}

// --- differential harness ---

// Fuzz input is a sequence of 4-byte operations {op, class, hi, lo}. The
// low two bits of op pick the call, the rest the packet size; class and
// the 16-bit value pick the flow.
const (
	qtEnqueue = 0 // also 1: enqueues are the common call
	qtDequeue = 2
	qtDrain   = 3 // dequeue the flow's whole balance: the entry leaves

	qtDense   = 0 // flow = value: sequential IDs, the fabric's case
	qtWrap    = 1 // one of 32 flows homed on the last slot at every size
	qtCluster = 2 // one of 32 flows homed on one mid slot at every size
	qtRaw     = 3 // the value spread over all 64 bits, negative half included
)

// phiInv is the inverse of the table's hash multiplier mod 2^64, so
// phiInv*c hashes to c: flows base + k*phiInv differ only in the low bits
// of their hash and collide at every index size.
var phiInv = func() uint64 {
	const phi = 0x9e3779b97f4a7c15
	x := uint64(phi) // Newton's iteration doubles the correct low bits
	for i := 0; i < 6; i++ {
		x *= 2 - phi*x
	}
	return x
}()

func qtFlow(class byte, val uint16) FlowID {
	switch class % 4 {
	case qtDense:
		return FlowID(val)
	case qtWrap:
		return FlowID(phiInv*(^uint64(0)-31) + uint64(val%32)*phiInv)
	case qtCluster:
		return FlowID(phiInv*(1<<63) + uint64(val%32)*phiInv)
	default:
		return FlowID(uint64(val)<<48 | uint64(val)*0x10001)
	}
}

// TestQueueTableCollidingFlows checks the palette does what the fuzz
// relies on: at every index size the wrap flows share the last slot as
// their home and the cluster flows share the middle one.
func TestQueueTableCollidingFlows(t *testing.T) {
	for size := 8; size <= 1<<16; size *= 2 {
		tb := &QueueTable{shift: uint8(64 - bits.TrailingZeros(uint(size)))}
		for k := uint16(0); k < 32; k++ {
			if h := tb.home(qtFlow(qtWrap, k)); h != size-1 {
				t.Fatalf("size %d: wrap flow %d homes at %d, want %d", size, k, h, size-1)
			}
			if h := tb.home(qtFlow(qtCluster, k)); h != size/2 {
				t.Fatalf("size %d: cluster flow %d homes at %d, want %d", size, k, h, size/2)
			}
		}
	}
}

func qtOp(call byte, size int, class byte, val uint16) []byte {
	return []byte{call | byte(size/25)<<2, class, byte(val >> 8), byte(val)}
}

// runQueueTableOps applies data to a QueueTable and to the reference and
// compares Flows order, Len and every tracked flow's QueuedBytes after
// each call.
func runQueueTableOps(data []byte) error {
	tb, ref := NewQueueTable(), newRefQueueTable()
	var got []FlowID
	for i := 0; i+4 <= len(data); i += 4 {
		call, size := data[i]&3, int(data[i]>>2)*25
		flow := qtFlow(data[i+1], uint16(data[i+2])<<8|uint16(data[i+3]))
		switch call {
		case qtDequeue:
			tb.OnDequeue(0, flow, size)
			ref.OnDequeue(flow, size)
		case qtDrain:
			b := ref.bytes[flow]
			tb.OnDequeue(0, flow, b)
			ref.OnDequeue(flow, b)
		default:
			tb.OnEnqueue(0, flow, size)
			ref.OnEnqueue(flow, size)
		}
		got = tb.Flows(0, got[:0])
		if !slices.Equal(got, ref.set.order) {
			return fmt.Errorf("op %d (call %d flow %d): Flows = %v, reference %v", i/4, call, flow, got, ref.set.order)
		}
		if tb.Len() != ref.set.len() {
			return fmt.Errorf("op %d: Len = %d, reference %d", i/4, tb.Len(), ref.set.len())
		}
		if g, w := tb.QueuedBytes(flow), ref.bytes[flow]; g != w {
			return fmt.Errorf("op %d: QueuedBytes(%d) = %d, reference %d", i/4, flow, g, w)
		}
		for _, f := range ref.set.order {
			if g, w := tb.QueuedBytes(f), ref.bytes[f]; g != w {
				return fmt.Errorf("op %d: QueuedBytes(%d) = %d, reference %d", i/4, f, g, w)
			}
		}
	}
	return nil
}

func qtCat(ops ...[]byte) []byte { return slices.Concat(ops...) }

// qtRange applies one call to flows [from, to) of a class.
func qtRange(call byte, size int, class byte, from, to uint16) []byte {
	var out []byte
	for v := from; v < to; v++ {
		out = append(out, qtOp(call, size, class, v)...)
	}
	return out
}

// queueTableSeeds names the cases the fuzz corpus starts from.
var queueTableSeeds = map[string][]byte{
	"grow through 8, 16, 32 and 64 slots, then drain": qtCat(
		qtRange(qtEnqueue, 1000, qtDense, 1, 40), qtRange(qtDrain, 0, qtDense, 1, 40)),
	"dequeue of unknown flows": qtCat(
		qtOp(qtDequeue, 1000, qtDense, 7), qtOp(qtEnqueue, 1000, qtDense, 1),
		qtOp(qtDequeue, 1000, qtDense, 7), qtOp(qtDequeue, 1000, qtRaw, 1), qtOp(qtDrain, 0, qtDense, 7)),
	"partial dequeue keeps the entry": qtCat(
		qtOp(qtEnqueue, 1500, qtDense, 1), qtOp(qtEnqueue, 1500, qtDense, 2),
		qtOp(qtDequeue, 1000, qtDense, 1), qtOp(qtEnqueue, 500, qtDense, 1), qtOp(qtDequeue, 1000, qtDense, 1),
		qtOp(qtDequeue, 1000, qtDense, 1)),
	"swap-remove moves the last entry into the hole": qtCat(
		qtRange(qtEnqueue, 100, qtDense, 1, 6), qtOp(qtDrain, 0, qtDense, 1), qtOp(qtDrain, 0, qtDense, 3),
		qtOp(qtEnqueue, 100, qtDense, 1), qtOp(qtDrain, 0, qtDense, 1)),
	"zero-byte packets": qtCat(
		qtOp(qtEnqueue, 0, qtDense, 1), qtOp(qtEnqueue, 0, qtDense, 1), qtOp(qtEnqueue, 25, qtDense, 1),
		qtOp(qtDequeue, 0, qtDense, 1), qtOp(qtDequeue, 25, qtDense, 1), qtOp(qtEnqueue, 0, qtDense, 2),
		qtOp(qtDequeue, 0, qtDense, 2)),
	"colliding run wraps past the last slot": qtCat(
		qtRange(qtEnqueue, 100, qtWrap, 0, 7),
		qtOp(qtDrain, 0, qtWrap, 0), qtOp(qtDrain, 0, qtWrap, 3), qtOp(qtDrain, 0, qtWrap, 6),
		qtRange(qtEnqueue, 100, qtWrap, 0, 7), qtRange(qtDrain, 0, qtWrap, 0, 7)),
	"backward shift across the wrap with other homes interleaved": qtCat(
		qtRange(qtEnqueue, 100, qtWrap, 0, 3), qtRange(qtEnqueue, 100, qtDense, 1, 3),
		qtRange(qtEnqueue, 100, qtWrap, 3, 6), qtOp(qtDrain, 0, qtWrap, 0), qtOp(qtDrain, 0, qtWrap, 1),
		qtRange(qtDrain, 0, qtDense, 1, 3), qtRange(qtDrain, 0, qtWrap, 2, 6)),
	"colliding cluster grows the index": qtCat(
		qtRange(qtEnqueue, 100, qtCluster, 0, 32), qtRange(qtDrain, 0, qtCluster, 0, 32)),
	"raw 64-bit and negative IDs": qtCat(
		qtRange(qtEnqueue, 100, qtRaw, 0x7ff0, 0x8010), qtRange(qtDequeue, 100, qtRaw, 0x7ff8, 0x8008),
		qtRange(qtDrain, 0, qtRaw, 0x7ff0, 0x8010)),
	"churn: flows come and go around a long-lived one": qtCat(
		qtOp(qtEnqueue, 1500, qtDense, 1),
		bytes.Repeat(qtCat(qtRange(qtEnqueue, 1000, qtDense, 2, 12), qtRange(qtDrain, 0, qtDense, 2, 12)), 4),
		qtOp(qtDrain, 0, qtDense, 1)),
}

// FuzzQueueTable drives QueueTable and the map-based reference with the
// same enqueue/dequeue stream and requires the same recipients in the
// same order, the same Len and the same per-flow byte balances.
func FuzzQueueTable(f *testing.F) {
	for _, seed := range queueTableSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueTableOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueueTableSeeds names the seed corpus, so a failure says which case.
func TestQueueTableSeeds(t *testing.T) {
	for name, seed := range queueTableSeeds {
		if err := runQueueTableOps(seed); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQueueTableRandomOps runs long pseudo-random streams over a few
// thousand flows, reaching index sizes the short seeds do not.
func TestQueueTableRandomOps(t *testing.T) {
	r := sim.NewRand(1)
	for round := 0; round < 20; round++ {
		data := make([]byte, 4*4096)
		for i := 0; i < len(data); i += 4 {
			call := byte(r.Intn(4))
			if round%2 == 0 && call >= qtDequeue {
				call = byte(r.Intn(4)) // enqueue-heavy rounds grow the table
			}
			val := uint16(r.Intn(64 << (round % 6)))
			copy(data[i:], qtOp(call, 25*r.Intn(64), byte(r.Intn(4)), val))
		}
		if err := runQueueTableOps(data); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestQueueTableFlowsReusesDst pins what the congestion points rely on:
// Flows appends into the caller's slice and allocates nothing once it is
// large enough.
func TestQueueTableFlowsReusesDst(t *testing.T) {
	tb := NewQueueTable()
	for f := FlowID(1); f <= 20; f++ {
		tb.OnEnqueue(0, f, 100)
	}
	scratch := tb.Flows(0, nil)
	if allocs := testing.AllocsPerRun(100, func() { scratch = tb.Flows(0, scratch[:0]) }); allocs != 0 {
		t.Errorf("Flows into a large enough dst allocates %.1f times", allocs)
	}
	if len(scratch) != 20 {
		t.Errorf("Flows returned %d recipients, want 20", len(scratch))
	}
}

// QueuedBytes returns the bytes the flow currently has in the queue.
func (t *QueueTable) QueuedBytes(flow FlowID) int {
	if _, pos := t.lookup(flow); pos >= 0 {
		return t.entries[pos].bytes
	}
	return 0
}
