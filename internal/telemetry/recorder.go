package telemetry

import "sync"

// EventKind discriminates flight-recorder events for export.
type EventKind uint8

// Event kinds, mapping one-to-one onto Chrome trace-event phases.
const (
	KindInstant EventKind = iota // point-in-time occurrence (ph "i")
	KindSpan                     // interval with a duration (ph "X")
	KindCounter                  // sampled quantity (ph "C")
)

// Event is one flight-recorder entry. Node/Tid become the Chrome trace
// pid/tid; Flow, when non-zero, tags the event with the flow it belongs
// to in the exported trace.
type Event struct {
	At    int64 // event time in ns (virtual or wall, producer-defined)
	Dur   int64 // span duration in ns (KindSpan only)
	Kind  EventKind
	Cat   string  // subsystem, e.g. "netsim", "cp", "rp"
	Name  string  // e.g. "qdepth_bytes", "pfc_pause", "fair_rate_mbps"
	Node  int64   // originating node (Chrome pid)
	Tid   int64   // port or flow lane within the node (Chrome tid)
	Flow  int64   // flow the event belongs to; 0 = not flow-scoped
	Value float64 // counter sample (KindCounter only)
}

// Recorder is the bounded flight recorder: one ring holding the most
// recent events across the system. Its memory is allocated up front;
// recording never grows it.
//
// Recorder is safe for concurrent use. A nil *Recorder drops all events.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next int // slot the next event overwrites once buf is full
}

// NewRecorder creates a flight recorder retaining the last n events
// (at least one).
func NewRecorder(n int) *Recorder {
	return &Recorder{buf: make([]Event, 0, max(n, 1))}
}

// Record files one event, evicting the oldest once the ring is full.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
