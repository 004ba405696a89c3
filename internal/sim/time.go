// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock with nanosecond resolution, a cancellable event queue,
// periodic timers, and seeded random-number helpers.
//
// The engine is single-goroutine by design. All model code runs inside
// event callbacks; determinism follows from the total order on
// (time, lane, seq) — which is (time, insertion sequence) on a bare
// engine, where every event is on lane 0. A Group (shard.go) runs one
// such engine per shard plus a global lane.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
// It is also used for durations.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.500us" or "20ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts a duration in seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }
