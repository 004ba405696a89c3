package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderGlobalRingEvicts(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: int64(i), Name: "e"})
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.At != int64(6+i) {
			t.Errorf("event %d at %d, want %d (oldest first)", i, e.At, 6+i)
		}
	}
}

func TestChromeTraceShape(t *testing.T) {
	events := []Event{
		{At: 1000, Kind: KindCounter, Cat: "netsim", Name: "qdepth_bytes", Node: 2, Tid: 1, Value: 1500},
		{At: 2000, Dur: 500, Kind: KindSpan, Cat: "pfc", Name: "pause", Node: 2, Tid: 0},
		{At: 3000, Kind: KindInstant, Cat: "netsim", Name: "drop", Node: 2, Tid: 1, Value: 1},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	// 3 events + 1 process_name metadata record for node 2.
	if len(out.TraceEvents) != 4 {
		t.Fatalf("trace has %d events, want 4", len(out.TraceEvents))
	}
	byPh := map[string]map[string]any{}
	for _, e := range out.TraceEvents {
		byPh[e["ph"].(string)] = e
	}
	c, ok := byPh["C"]
	if !ok {
		t.Fatal("no counter event")
	}
	if c["ts"].(float64) != 1.0 { // 1000 ns = 1 µs
		t.Errorf("counter ts = %v µs, want 1", c["ts"])
	}
	if c["args"].(map[string]any)["qdepth_bytes"].(float64) != 1500 {
		t.Error("counter args missing value")
	}
	x, ok := byPh["X"]
	if !ok {
		t.Fatal("no span event")
	}
	if x["dur"].(float64) != 0.5 {
		t.Errorf("span dur = %v µs, want 0.5", x["dur"])
	}
	if _, ok := byPh["i"]; !ok {
		t.Error("no instant event")
	}
	m, ok := byPh["M"]
	if !ok {
		t.Fatal("no process metadata")
	}
	if m["args"].(map[string]any)["name"].(string) != "node 2" {
		t.Error("process metadata not named")
	}
}

// TestChromeTraceFlowTags: a flow-tagged counter gets the flow as its
// trace id (its own track), a flow-tagged instant gets args "flow", and
// an untagged event carries neither.
func TestChromeTraceFlowTags(t *testing.T) {
	events := []Event{
		{At: 1000, Kind: KindCounter, Cat: "rocc", Name: "rp_rate_mbps", Node: 3, Flow: 7, Value: 4000},
		{At: 2000, Kind: KindInstant, Cat: "netsim", Name: "drop", Node: 2, Flow: 9, Value: 1048},
		{At: 3000, Kind: KindCounter, Cat: "netsim", Name: "qdepth_bytes", Node: 2, Tid: 1, Value: 1500},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	want := []string{
		`{"name":"rp_rate_mbps","cat":"rocc","ph":"C","ts":1,"pid":3,"tid":0,"id":7,"args":{"rp_rate_mbps":4000}}`,
		`{"name":"drop","cat":"netsim","ph":"i","ts":2,"pid":2,"tid":0,"s":"t","args":{"flow":9,"value":1048}}`,
		`{"name":"qdepth_bytes","cat":"netsim","ph":"C","ts":3,"pid":2,"tid":1,"args":{"qdepth_bytes":1500}}`,
	}
	for i, w := range want {
		if got := string(out.TraceEvents[i]); got != w {
			t.Errorf("event %d:\n got %s\nwant %s", i, got, w)
		}
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace should still carry an (empty) traceEvents array: %s", sb.String())
	}
}
