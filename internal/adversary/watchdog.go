package adversary

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// WatchdogConfig parameterizes one switch's PFC storm watchdog.
type WatchdogConfig struct {
	// Deadline is how long a pause may stay asserted on an egress
	// before it is declared a storm. Default 500 µs — healthy pauses in
	// the paper's fabrics last microseconds; the network-level storm
	// threshold (Network.PauseStormSpan) is 1 ms.
	Deadline sim.Time
}

const (
	// watchdogCooldown is how long the lossless class stays disabled
	// after a trip before it is re-enabled. A storm still active at
	// re-enable re-trips on the next scan.
	watchdogCooldown = sim.Millisecond

	// watchdogScanPeriod is the port-scan period.
	watchdogScanPeriod = 50 * sim.Microsecond
)

func (c WatchdogConfig) fill() WatchdogConfig {
	if c.Deadline <= 0 {
		c.Deadline = 500 * sim.Microsecond
	}
	return c
}

// WatchdogStats summarizes a watchdog's activity.
type WatchdogStats struct {
	Trips     int // storms detected (lossless disabled)
	Reenables int // cooldowns completed (lossless restored)
}

// Watchdog is the deployed PFC storm mitigation for one switch: when a
// port's pause has been asserted past Deadline, the lossless class on
// that port is disabled — the stuck queue is flushed (dropped, with
// normal buffer/PFC accounting so upstream pause state unwinds), new
// data routed there is dropped, and the storm's continuing pause frames
// are ignored — until the cooldown re-enables it. Storm-free fabrics see
// only reads: a watchdog that never trips never mutates, preserving
// byte-identical trajectories (the zero-fault identity contract).
type Watchdog struct {
	net *netsim.Network
	sw  *netsim.Switch
	cfg WatchdogConfig

	// reenableAt records, per port index, when the pending cooldown
	// restores the lossless class. The watchdog-liveness invariant
	// checks it: a port still disabled after its recorded deadline
	// means the re-enable was lost.
	reenableAt map[int]sim.Time

	stopped bool
	stats   WatchdogStats
}

// NewWatchdog attaches a storm watchdog to the switch and starts its
// scan.
func NewWatchdog(net *netsim.Network, sw *netsim.Switch, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		net:        net,
		sw:         sw,
		cfg:        cfg.fill(),
		reenableAt: make(map[int]sim.Time),
	}
	if reg := net.TelemetryRegistry(); reg != nil {
		reg.CounterFunc("adversary.watchdog.trips", func() uint64 { return uint64(w.stats.Trips) })
		reg.CounterFunc("adversary.watchdog.reenables", func() uint64 { return uint64(w.stats.Reenables) })
	}
	net.Engine.AfterCall(watchdogScanPeriod, watchdogScan, w, nil)
	return w
}

// Stop ends the scan. Pending cooldown re-enables still fire — a
// stopped watchdog must not leave a port lossless-disabled forever.
func (w *Watchdog) Stop() { w.stopped = true }

// Stats returns the activity counters.
func (w *Watchdog) Stats() WatchdogStats { return w.stats }

// DisabledPorts returns how many of the switch's ports currently have
// their lossless class storm-disabled.
func (w *Watchdog) DisabledPorts() int {
	n := 0
	for _, p := range w.sw.Ports() {
		if p.LosslessOff() {
			n++
		}
	}
	return n
}

// StuckDisabled reports a liveness failure: a port whose lossless class
// is disabled past its recorded re-enable deadline (the cooldown event
// was lost). Healthy operation never returns true, including mid-cooldown.
func (w *Watchdog) StuckDisabled(now sim.Time) bool {
	for _, p := range w.sw.Ports() {
		if !p.LosslessOff() {
			continue
		}
		at, ok := w.reenableAt[p.Index]
		if !ok || now > at {
			return true
		}
	}
	return false
}

func (w *Watchdog) trip(port *netsim.Port) {
	if port.LosslessOff() {
		return
	}
	port.SetLosslessOff(true) // releases the in-progress pause span
	bytes := w.sw.FlushPortData(port)
	w.stats.Trips++
	w.reenableAt[port.Index] = w.net.Engine.Now() + watchdogCooldown
	record(w.net, "watchdog_trip", w.sw.ID(), 0, port.Index, float64(bytes))
	w.net.Engine.AfterCall(watchdogCooldown, watchdogReenable, w, port)
}

// watchdogScan checks every port's in-progress pause span against the
// deadline. Reads only, unless a storm is found.
func watchdogScan(a, _ any) {
	w := a.(*Watchdog)
	if w.stopped {
		return
	}
	for _, p := range w.sw.Ports() {
		if p.LosslessOff() {
			continue // cooldown pending
		}
		if p.CurrentPauseSpan() >= w.cfg.Deadline {
			w.trip(p)
		}
	}
	w.net.Engine.AfterCall(watchdogScanPeriod, watchdogScan, w, nil)
}

// watchdogReenable restores the lossless class after the cooldown. It
// fires even on a stopped watchdog: disabling is an intervention, and
// interventions must unwind.
func watchdogReenable(a, b any) {
	w := a.(*Watchdog)
	port := b.(*netsim.Port)
	port.SetLosslessOff(false)
	delete(w.reenableAt, port.Index)
	w.stats.Reenables++
	record(w.net, "watchdog_reenable", w.sw.ID(), 0, port.Index, 0)
}
