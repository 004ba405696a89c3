// Package faults is a deterministic fault-injection layer for the RoCC
// reproduction. The paper's headline claim is robustness; this package
// makes that a measurable property by perturbing the control loop the
// same way real fabrics do — lost, late, duplicated and corrupted
// packets, flapping links, and stalled congestion-point timers — while
// keeping the congestion-control algorithms themselves untouched.
//
// Design rules:
//
//   - Deterministic: an Injector owns a seeded RNG stream that is
//     independent of the network's workload stream, and every attachment
//     derives its own sub-stream (sim.Rand.Split). Two runs with the
//     same seeds produce identical fault sequences, and attaching faults
//     to one link never perturbs another link's sequence. Per-cell
//     seeding makes sweeps harness-compatible (internal/harness).
//
//   - Pay for what you use: attachments with all probabilities at zero
//     install no hooks, schedule no events and draw no random numbers,
//     so a zero-fault run is byte-identical to a run without the layer.
//
//   - Injection sits at the simulator's seams (netsim.Port.Fault,
//     netsim.Switch.InjectGate, Port.SetLinkDown), never inside the
//     algorithms: RoCC and every baseline see faults only as the absence,
//     lateness or garbling of the packets they already handle.
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// LinkConfig sets per-packet fault probabilities for one link direction.
// Probabilities are evaluated in the order drop, corrupt, duplicate,
// reorder with a single uniform draw, so their sum must not exceed 1.
type LinkConfig struct {
	Drop      float64 // packet vanishes on the wire
	Corrupt   float64 // payload mangled: CNPs carry garbage rate units, other kinds fail CRC and are discarded
	Duplicate float64 // packet delivered twice
	Reorder   float64 // packet delayed by reorderDelay, landing behind later transmissions

	// Match restricts the faults to packets it accepts; nil matches all.
	Match func(pkt *netsim.Packet) bool
}

func (c LinkConfig) active() bool {
	return c.Drop > 0 || c.Corrupt > 0 || c.Duplicate > 0 || c.Reorder > 0
}

// Validate reports whether the configuration is usable: probabilities
// must be non-negative and sum to at most 1 (they share a single uniform
// draw). Generators composing random fault schedules (internal/chaos)
// call this to reject a bad config with an error instead of crashing a
// worker pool; direct misuse of the injector still panics via validate.
func (c LinkConfig) Validate() error {
	if c.Drop < 0 || c.Corrupt < 0 || c.Duplicate < 0 || c.Reorder < 0 {
		return errors.New("faults: negative probability")
	}
	if c.Drop+c.Corrupt+c.Duplicate+c.Reorder > 1 {
		return fmt.Errorf("faults: probabilities sum to %v, past 1",
			c.Drop+c.Corrupt+c.Duplicate+c.Reorder)
	}
	return nil
}

func (c LinkConfig) validate() {
	if err := c.Validate(); err != nil {
		panic(err)
	}
}

// ValidateFlap reports whether a flap schedule is usable: both durations
// positive and the down time strictly inside the period.
func ValidateFlap(period, downFor sim.Time) error {
	if period <= 0 || downFor <= 0 {
		return errors.New("faults: flap period and down time must be positive")
	}
	if downFor >= period {
		return errors.New("faults: flap down time must be shorter than its period")
	}
	return nil
}

// ValidateStall reports whether a CP stall schedule is usable.
func ValidateStall(period, stallFor sim.Time) error {
	if period <= 0 || stallFor <= 0 {
		return errors.New("faults: stall period and window must be positive")
	}
	if stallFor >= period {
		return errors.New("faults: stall window must be shorter than its period")
	}
	return nil
}

// ValidateProb reports whether p is a probability.
func ValidateProb(p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("faults: probability %v out of [0,1]", p)
	}
	return nil
}

// MatchCNPs restricts link faults to congestion notifications.
func MatchCNPs(pkt *netsim.Packet) bool { return pkt.Kind == netsim.KindCNP }

// MatchData restricts link faults to data packets.
func MatchData(pkt *netsim.Packet) bool { return pkt.Kind == netsim.KindData }

// Stats aggregates fault counters across every attachment of an Injector.
type Stats struct {
	Dropped      uint64 // link-level drops (all kinds)
	CNPsLost     uint64 // CNPs lost to link drops and CP gate drops
	Corrupted    uint64 // packets mangled (CNPs) or CRC-discarded (others)
	Duplicated   uint64
	Reordered    uint64
	Flaps        uint64 // completed link-down events
	CNPsStalled  uint64 // CNPs suppressed inside CP stall windows
	StallWindows uint64
	LinkKills    uint64 // scheduled hard link failures executed
	SwitchKills  uint64 // scheduled hard switch failures executed
	Restores     uint64 // scheduled restores executed (links and switches)
}

// Injector owns the fault configuration and RNG streams for one network.
type Injector struct {
	net   *netsim.Network
	rand  *sim.Rand
	stats Stats
	gates map[*netsim.Switch]*cpGate
}

// New creates an injector with its own deterministic RNG stream, seeded
// independently of the network's workload randomness.
func New(net *netsim.Network, seed int64) *Injector {
	return &Injector{
		net:   net,
		rand:  sim.NewRand(seed),
		gates: make(map[*netsim.Switch]*cpGate),
	}
}

// Stats returns a snapshot of the aggregated fault counters. Counters
// are bumped atomically (link hooks and CP gates fire in shard context
// under the parallel engine), so the snapshot loads them atomically too.
func (in *Injector) Stats() Stats {
	return Stats{
		Dropped:      atomic.LoadUint64(&in.stats.Dropped),
		CNPsLost:     atomic.LoadUint64(&in.stats.CNPsLost),
		Corrupted:    atomic.LoadUint64(&in.stats.Corrupted),
		Duplicated:   atomic.LoadUint64(&in.stats.Duplicated),
		Reordered:    atomic.LoadUint64(&in.stats.Reordered),
		Flaps:        atomic.LoadUint64(&in.stats.Flaps),
		CNPsStalled:  atomic.LoadUint64(&in.stats.CNPsStalled),
		StallWindows: atomic.LoadUint64(&in.stats.StallWindows),
		LinkKills:    atomic.LoadUint64(&in.stats.LinkKills),
		SwitchKills:  atomic.LoadUint64(&in.stats.SwitchKills),
		Restores:     atomic.LoadUint64(&in.stats.Restores),
	}
}

// Link attaches the fault configuration to both directions of the link
// between ports a and b. A zero configuration attaches nothing.
func (in *Injector) Link(a, b *netsim.Port, cfg LinkConfig) {
	in.Direction(a, cfg)
	in.Direction(b, cfg)
}

// Direction attaches the fault configuration to packets leaving one
// port. Each call derives a private RNG sub-stream so later attachments
// never perturb earlier ones.
func (in *Injector) Direction(p *netsim.Port, cfg LinkConfig) {
	cfg.validate()
	if !cfg.active() {
		return
	}
	if p.Fault != nil {
		panic("faults: port already has a fault hook")
	}
	p.Fault = &linkHook{in: in, cfg: cfg, rand: in.rand.Split()}
}

// reorderDelay is the extra propagation applied to reordered packets:
// several link RTTs.
const reorderDelay = 10 * sim.Microsecond

// linkHook implements netsim.FaultHook for one link direction.
type linkHook struct {
	in   *Injector
	cfg  LinkConfig
	rand *sim.Rand
}

// OnTransmit rolls one uniform value per matched packet and maps it onto
// the configured probability ranges.
func (h *linkHook) OnTransmit(now sim.Time, pkt *netsim.Packet) netsim.FaultVerdict {
	if h.cfg.Match != nil && !h.cfg.Match(pkt) {
		return netsim.FaultVerdict{}
	}
	u := h.rand.Float64()
	switch {
	case u < h.cfg.Drop:
		atomic.AddUint64(&h.in.stats.Dropped, 1)
		if pkt.Kind == netsim.KindCNP {
			atomic.AddUint64(&h.in.stats.CNPsLost, 1)
		}
		return netsim.FaultVerdict{Drop: true}
	case u < h.cfg.Drop+h.cfg.Corrupt:
		atomic.AddUint64(&h.in.stats.Corrupted, 1)
		return netsim.FaultVerdict{Drop: !h.corrupt(pkt)}
	case u < h.cfg.Drop+h.cfg.Corrupt+h.cfg.Duplicate:
		atomic.AddUint64(&h.in.stats.Duplicated, 1)
		return netsim.FaultVerdict{Duplicate: true}
	case u < h.cfg.Drop+h.cfg.Corrupt+h.cfg.Duplicate+h.cfg.Reorder:
		atomic.AddUint64(&h.in.stats.Reordered, 1)
		return netsim.FaultVerdict{ExtraDelay: reorderDelay}
	}
	return netsim.FaultVerdict{}
}

// corrupt mangles a packet's payload in place and reports whether the
// packet survives. CNPs survive the wire with garbage rate units —
// exercising the reaction point's feedback validation — while every
// other kind fails its CRC at the receiver and is discarded.
func (h *linkHook) corrupt(pkt *netsim.Packet) bool {
	info := pkt.CNP()
	if pkt.Kind != netsim.KindCNP || info == nil {
		return false
	}
	garbage := func() int {
		if h.rand.Intn(2) == 0 {
			return -1 - h.rand.Intn(1<<20) // negative rate
		}
		return 1<<30 + h.rand.Intn(1<<20) // absurdly large rate
	}
	if info.HostComputed {
		info.QCurUnits = garbage()
		info.QOldUnits = garbage()
	} else {
		info.RateUnits = garbage()
	}
	return true
}

// Flap schedules a periodic outage on the link between ports a and b
// until virtual time until: every period the link drops for downFor,
// losing everything in transit on it (data, CNPs and PFC frames), then
// re-establishes with pause state cleared on both ends. The first outage
// starts one period in; an outage whose down window would extend past
// until is not started, so the link is up again by until and the
// schedule quiesces before a run's end. A zero period or down time
// attaches nothing.
func (in *Injector) Flap(a, b *netsim.Port, period, downFor, until sim.Time) {
	if period <= 0 || downFor <= 0 {
		return
	}
	if downFor >= period {
		panic("faults: flap down time must be shorter than its period")
	}
	engine := in.net.Engine
	var down func()
	down = func() {
		if engine.Now()+downFor > until {
			return
		}
		a.SetLinkDown(true)
		b.SetLinkDown(true)
		engine.After(downFor, func() {
			a.SetLinkDown(false)
			b.SetLinkDown(false)
			atomic.AddUint64(&in.stats.Flaps, 1)
			engine.After(period-downFor, down)
		})
	}
	engine.After(period, down)
}

// ValidateKill reports whether a topology-kill schedule is usable: the
// kill time must be non-negative and the restore, when scheduled
// (restoreAt > 0), must come strictly after it. restoreAt == 0 means the
// failure is permanent for the run.
func ValidateKill(at, restoreAt sim.Time) error {
	if at < 0 {
		return errors.New("faults: kill time must be non-negative")
	}
	if restoreAt > 0 && restoreAt <= at {
		return errors.New("faults: restore must come after the kill")
	}
	return nil
}

// KillLink schedules a hard failure of the link between ports a and b at
// time at, routed through the network's topology-failure machinery
// (netsim.FailLink): both ends go down, ECMP entries over the link are
// invalidated immediately, and routes reconverge after the network's
// ReconvergeDelay. restoreAt > 0 schedules the symmetric restore. Unlike
// Flap, which only pauses the wire, a kill changes routing — flows
// re-path around the outage. A zero-entry plan (never calling this)
// installs nothing, keeping zero-fault runs byte-identical.
func (in *Injector) KillLink(a, b *netsim.Port, at, restoreAt sim.Time) {
	if err := ValidateKill(at, restoreAt); err != nil {
		panic(err)
	}
	if b.Owner() != a.PeerNode {
		panic("faults: KillLink ports are not ends of one link")
	}
	engine := in.net.Engine
	engine.At(at, func() {
		in.net.FailLink(a) // fails both ends; b names the link for the caller
		atomic.AddUint64(&in.stats.LinkKills, 1)
	})
	if restoreAt > 0 {
		engine.At(restoreAt, func() {
			in.net.RestoreLink(a)
			atomic.AddUint64(&in.stats.Restores, 1)
		})
	}
}

// KillSwitch schedules a hard failure of a whole switch at time at
// (netsim.FailSwitch): every attached link goes down, peers invalidate
// their routes toward it, and its own table is cleared until the restore
// reconverges. restoreAt > 0 schedules the restore; zero leaves it dead.
func (in *Injector) KillSwitch(sw *netsim.Switch, at, restoreAt sim.Time) {
	if err := ValidateKill(at, restoreAt); err != nil {
		panic(err)
	}
	engine := in.net.Engine
	engine.At(at, func() {
		in.net.FailSwitch(sw)
		atomic.AddUint64(&in.stats.SwitchKills, 1)
	})
	if restoreAt > 0 {
		engine.At(restoreAt, func() {
			in.net.RestoreSwitch(sw)
			atomic.AddUint64(&in.stats.Restores, 1)
		})
	}
}

// cpGate filters one switch's locally generated CNPs: probabilistic loss
// plus stall windows, sharing the single netsim.Switch.InjectGate slot.
type cpGate struct {
	in      *Injector
	rand    *sim.Rand
	drop    float64
	stalled bool
}

func (g *cpGate) allow(pkt *netsim.Packet) bool {
	if pkt.Kind != netsim.KindCNP {
		return true
	}
	if g.stalled {
		atomic.AddUint64(&g.in.stats.CNPsStalled, 1)
		return false
	}
	if g.drop > 0 && g.rand.Float64() < g.drop {
		atomic.AddUint64(&g.in.stats.CNPsLost, 1)
		return false
	}
	return true
}

func (in *Injector) gate(sw *netsim.Switch) *cpGate {
	g, ok := in.gates[sw]
	if !ok {
		if sw.InjectGate != nil {
			panic("faults: switch already has an inject gate")
		}
		g = &cpGate{in: in, rand: in.rand.Split()}
		sw.InjectGate = g.allow
		in.gates[sw] = g
	}
	return g
}

// DropCNPs makes the switch lose each CNP it generates with probability
// prob — feedback loss on the control path. Zero attaches nothing.
func (in *Injector) DropCNPs(sw *netsim.Switch, prob float64) {
	if prob < 0 || prob > 1 {
		panic("faults: CNP drop probability out of range")
	}
	if prob == 0 {
		return
	}
	in.gate(sw).drop = prob
}

// StallCP silences the switch's congestion points for stallFor out of
// every period until virtual time until, modeling a stalled CP timer
// (late feedback): CNPs due in the window are suppressed, not queued.
// The first window opens one period in; a window that would extend past
// until is not opened, so the CP is live again by until. A zero period
// or window attaches nothing.
func (in *Injector) StallCP(sw *netsim.Switch, period, stallFor, until sim.Time) {
	if period <= 0 || stallFor <= 0 {
		return
	}
	if stallFor >= period {
		panic("faults: stall window must be shorter than its period")
	}
	g := in.gate(sw)
	engine := in.net.Engine
	var stall func()
	stall = func() {
		if engine.Now()+stallFor > until {
			return
		}
		g.stalled = true
		atomic.AddUint64(&in.stats.StallWindows, 1)
		engine.After(stallFor, func() {
			g.stalled = false
			engine.After(period-stallFor, stall)
		})
	}
	engine.After(period, stall)
}
