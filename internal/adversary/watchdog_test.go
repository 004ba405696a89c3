package adversary

import (
	"testing"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// chain builds h0 → s0 → s1 → h1 with 40G links and returns s0 plus its
// egress toward s1 — the port a wedged pause storms.
func chain() (*sim.Engine, *netsim.Network, *netsim.Host, *netsim.Host, *netsim.Switch, *netsim.Port) {
	engine := sim.New()
	net := netsim.New(engine, 1)
	s0 := net.AddSwitch("s0", netsim.BufferConfig{})
	s1 := net.AddSwitch("s1", netsim.BufferConfig{})
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	net.Connect(h0, s0, netsim.Gbps(40), 1500)
	net.Connect(h1, s1, netsim.Gbps(40), 1500)
	p01, _ := net.Connect(s0, s1, netsim.Gbps(40), 1500)
	net.ComputeRoutes()
	return engine, net, h0, h1, s0, p01
}

// TestWatchdogTripDisableCooldownReenable walks the full storm path:
// a pause wedged past the deadline trips the watchdog, the lossless
// class goes down (stuck queue flushed, new arrivals dropped, storm
// pause frames ignored), and the cooldown restores it.
func TestWatchdogTripDisableCooldownReenable(t *testing.T) {
	engine, net, h0, h1, s0, p01 := chain()
	w := NewWatchdog(net, s0, WatchdogConfig{Deadline: 200 * sim.Microsecond})
	// The storm: the egress toward s1 is pause-wedged from t=0 while a
	// persistent flow keeps stacking data behind it.
	p01.SetPaused(true)
	f := net.StartFlow(h0, h1, netsim.FlowConfig{Size: -1})

	// Mid-storm: past the deadline, before the cooldown ends.
	engine.RunUntil(300 * sim.Microsecond)
	if !p01.LosslessOff() {
		t.Fatal("watchdog did not disable the stormed port")
	}
	if w.Stats().Trips != 1 {
		t.Fatalf("Trips = %d at 300µs, want 1", w.Stats().Trips)
	}
	if w.Stats().FlushedPkts == 0 || w.Stats().FlushedBytes == 0 {
		t.Error("trip flushed nothing despite a stacked queue")
	}
	if p01.Paused() {
		t.Error("disabling lossless must release the wedged pause")
	}
	if w.DisabledPorts() != 1 {
		t.Errorf("DisabledPorts = %d mid-cooldown, want 1", w.DisabledPorts())
	}
	if w.StuckDisabled(engine.Now()) {
		t.Error("StuckDisabled true during a healthy cooldown")
	}
	// The storm keeps screaming: its pause frames bounce off.
	pause := net.AcquirePacket(s0)
	pause.Kind = netsim.KindPause
	pause.Cls = netsim.ClassCtrl
	pause.Size = netsim.PauseBytes
	pause.PauseOn = true
	pause.SendTS = engine.Now()
	s0.Arrive(pause, p01.Index)
	if p01.Paused() {
		t.Error("pause frame honored while lossless is disabled")
	}
	if net.WatchdogPauseIgnores() == 0 {
		t.Error("ignored pause frame not counted")
	}

	// After the cooldown: re-enabled, flowing again.
	engine.RunUntil(2 * sim.Millisecond)
	if p01.LosslessOff() || w.DisabledPorts() != 0 {
		t.Error("lossless class still disabled after the cooldown")
	}
	st := w.Stats()
	if st.Reenables != st.Trips {
		t.Errorf("Reenables = %d, Trips = %d — a cooldown was lost", st.Reenables, st.Trips)
	}
	if w.StuckDisabled(engine.Now()) {
		t.Error("StuckDisabled after full recovery")
	}
	if net.WatchdogDrops() < st.FlushedPkts {
		t.Errorf("WatchdogDrops = %d < FlushedPkts = %d", net.WatchdogDrops(), st.FlushedPkts)
	}
	// Watchdog drops are interventions, not lossless-contract breaches.
	if net.TotalDrops() != 0 {
		t.Errorf("watchdog drops leaked into tail-drop accounting: %d", net.TotalDrops())
	}
	// The flow made progress again once the port was restored.
	if f.DeliveredBytes() == 0 {
		t.Error("flow starved even after the watchdog cleared the storm")
	}
	w.Stop()
}

// TestWatchdogForcedTrip exercises the trip path directly:
// disable → cooldown → re-enable without any pause at all.
func TestWatchdogForcedTrip(t *testing.T) {
	engine, net, _, _, s0, p01 := chain()
	w := NewWatchdog(net, s0, WatchdogConfig{})
	w.trip(p01)
	if !p01.LosslessOff() || w.Stats().Trips != 1 {
		t.Fatal("forced trip did not disable the port")
	}
	w.trip(p01) // idempotent while disabled
	if w.Stats().Trips != 1 {
		t.Error("re-tripping a disabled port counted twice")
	}
	engine.RunUntil(watchdogCooldown + sim.Microsecond)
	if p01.LosslessOff() || w.Stats().Reenables != 1 {
		t.Error("forced trip never re-enabled")
	}
}

// TestWatchdogStopStillReenables: stopping the watchdog mid-cooldown
// must not strand the port — interventions unwind.
func TestWatchdogStopStillReenables(t *testing.T) {
	engine, net, _, _, s0, p01 := chain()
	w := NewWatchdog(net, s0, WatchdogConfig{})
	w.trip(p01)
	w.Stop()
	engine.RunUntil(watchdogCooldown + sim.Microsecond)
	if p01.LosslessOff() {
		t.Error("stopped watchdog stranded a disabled port")
	}
	if w.Stats().Reenables != 1 {
		t.Errorf("Reenables = %d after stop, want 1", w.Stats().Reenables)
	}
}

// TestWatchdogZeroStormIdentity: a watchdog attached to a storm-free
// fabric only reads — the run must be byte-identical in bytes and
// virtual time to one without the watchdog (the zero-fault identity
// contract, as in internal/faults).
func TestWatchdogZeroStormIdentity(t *testing.T) {
	run := func(watched bool) (int64, sim.Time) {
		engine, net, h0, h1, s0, _ := chain()
		var w *Watchdog
		if watched {
			w = NewWatchdog(net, s0, WatchdogConfig{})
		}
		f := net.StartFlow(h0, h1, netsim.FlowConfig{Size: 300_000})
		engine.RunUntil(5 * sim.Millisecond)
		if !f.Done() {
			t.Fatal("flow incomplete")
		}
		if watched && (w.Stats() != WatchdogStats{}) {
			t.Errorf("storm-free run tripped the watchdog: %+v", w.Stats())
		}
		return f.DeliveredBytes(), f.FCT()
	}
	bytes0, t0 := run(false)
	bytes1, t1 := run(true)
	if bytes0 != bytes1 || t0 != t1 {
		t.Errorf("zero-storm run diverged: %d/%v vs %d/%v", bytes0, t0, bytes1, t1)
	}
}
