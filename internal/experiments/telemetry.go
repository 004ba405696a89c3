package experiments

import (
	"rocc/internal/telemetry"
)

// RunTelemetry bundles the observability attachments an experiment run
// accepts: a metrics registry (counters, gauges, histograms aggregated
// over the run) and an optional flight recorder feeding the Chrome-trace
// exporter. A nil *RunTelemetry — the default on every config — keeps
// the entire pipeline disabled at its documented ~zero cost.
//
// Telemetry is purely observational: attaching it never schedules
// events, draws random numbers, or alters packet handling, so a seeded
// run produces byte-identical results with telemetry on or off
// (TestFig8TelemetryByteIdentical holds this line).
type RunTelemetry struct {
	Registry *telemetry.Registry
	Recorder *telemetry.Recorder
}

// NewRunTelemetry builds a registry plus a flight recorder sized for a
// single-run trace. The ring is kept at 16 Ki events (~2 MB):
// large enough for several milliseconds of per-packet queue-depth
// samples, small enough not to evict the simulator's working set from
// cache (the ring is written on every data enqueue).
func NewRunTelemetry() *RunTelemetry {
	return &RunTelemetry{
		Registry: telemetry.New(),
		Recorder: telemetry.NewRecorder(1 << 14),
	}
}

// Events returns the recorder's retained events (nil-safe).
func (t *RunTelemetry) Events() []telemetry.Event {
	if t == nil {
		return nil
	}
	return t.Recorder.Events()
}

// Snapshot returns the registry's current snapshot (zero when disabled).
func (t *RunTelemetry) Snapshot() telemetry.Snapshot {
	if t == nil {
		return telemetry.Snapshot{}
	}
	return t.Registry.Snapshot()
}
