package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing / Perfetto "JSON Array with metadata" flavour).
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders flight-recorder events as Chrome trace-event
// JSON loadable in chrome://tracing or https://ui.perfetto.dev. Spans
// become complete ("X") slices, instants thread-scoped ("i") marks, and
// counters counter ("C") tracks, one per (node, name). A flow-tagged
// event carries its flow: a counter as the trace id, which gives each
// flow its own track, since every args key of a counter is plotted as a
// series; a span or instant as args "flow". Process metadata names each
// node so the timeline is readable without the source.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	pids := map[int64]bool{}
	for _, e := range events {
		if !pids[e.Node] {
			pids[e.Node] = true
		}
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ts:   float64(e.At) / 1e3,
			Pid:  e.Node,
			Tid:  e.Tid,
		}
		switch e.Kind {
		case KindSpan:
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		case KindCounter:
			ce.Ph = "C"
			ce.ID = e.Flow
			ce.Args = map[string]any{e.Name: e.Value}
		default:
			ce.Ph = "i"
			ce.S = "t"
			if e.Value != 0 {
				ce.Args = map[string]any{"value": e.Value}
			}
		}
		if e.Flow != 0 && e.Kind != KindCounter {
			if ce.Args == nil {
				ce.Args = map[string]any{}
			}
			ce.Args["flow"] = e.Flow
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	ids := make([]int64, 0, len(pids))
	for id := range pids {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  id,
			Args: map[string]any{"name": fmt.Sprintf("node %d", id)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
