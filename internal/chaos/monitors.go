package chaos

import (
	"fmt"
	"math"

	"rocc/internal/adversary"
	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Invariant names. Each one encodes a property the paper claims or the
// simulator's construction guarantees; DESIGN.md §8 maps them to the
// paper's subsections.
const (
	InvTimeMonotonic    = "time_monotonic"
	InvBufferAccounting = "buffer_accounting"
	InvQueueBound       = "queue_bound"
	InvPFCDeadlock      = "pfc_deadlock"
	InvPauseStorm       = "pause_storm"
	InvRPRateBounds     = "rp_rate_bounds"
	InvFlowConservation = "flow_conservation"
	InvLosslessDrops    = "lossless_drops"
	InvStuckQueue       = "stuck_queue"
	InvFairness         = "fairness"
	InvPacketAccounting = "packet_accounting"
	InvBlackhole        = "blackhole"   // no permanent blackhole after reconvergence
	InvRecovery         = "recovery"    // live flows deliver again after restore
	InvStalePause       = "stale_pause" // no pause survives the drain (deadlock-free restore)

	// Adversarial-dimension invariants (defended scenarios only).
	InvVictimFloor  = "victim_floor"          // policing keeps honest flows delivering
	InvWatchdogLive = "watchdog_live"         // no port stays lossless-disabled past its cooldown
	InvQuarantine   = "quarantine_accounting" // detections, releases and current quarantines balance
)

// Violation records one invariant trip.
type Violation struct {
	Invariant string `json:"invariant"`
	AtNs      int64  `json:"at_ns"`
	Detail    string `json:"detail"`
}

// Runtime is the live state the monitors inspect: the scenario, the
// built network, and the flows/reaction points as they come up. Custom
// monitors (tests, future invariants) get the same view the built-ins
// use.
type Runtime struct {
	Scenario Scenario
	Engine   *sim.Engine
	Net      *netsim.Network
	Injector *faults.Injector // nil when the scenario has no faults

	// Flows holds the started flow for each Scenario.Flows index (nil
	// until its start event fires).
	Flows []*netsim.Flow

	// RoCCRPs collects the reaction points of started RoCC flows.
	// Rogue-wrapped controllers are naturally excluded: the wrapper type
	// hides the FlowCC underneath, and a rogue's limiter is exactly the
	// thing the rp_rate_bounds invariant must not vouch for.
	RoCCRPs []*core.RP

	// Policers and Watchdogs are the switch-side defenses, one of each
	// per switch on defended scenarios; empty otherwise.
	Policers  []*adversary.Policer
	Watchdogs []*adversary.Watchdog

	fab        *fabric
	midBytes   []int64 // per-flow DeliveredBytes at the fairness window start
	lastNow    sim.Time
	hasDupData bool // a data-scope duplicate fault is configured

	// Topology-kill recovery snapshot, taken shortly after the scheduled
	// restore has reconverged (see Run). The final recovery checkers
	// compare the end-of-run state against it.
	recoverSet          bool   // snapshot taken (scenario had a kill that restored in time)
	recoverBytes        int64  // total delivered bytes at the snapshot
	blackholeAtRecovery uint64 // Net.BlackholeDrops() at the snapshot
	liveAtRecovery      bool   // a persistent flow had started and was not done
}

// CustomMonitor is a caller-supplied invariant. Sample runs on every
// monitor tick, Final once after the drain; either may be nil. Returning
// violated=true files a Violation under Name.
type CustomMonitor struct {
	Name   string
	Sample func(rt *Runtime) (detail string, violated bool)
	Final  func(rt *Runtime) (detail string, violated bool)
}

// checker is one built-in invariant probe.
type checker func(rt *Runtime) (string, bool)

func checkTimeMonotonic(rt *Runtime) (string, bool) {
	now := rt.Engine.Now()
	if now < rt.lastNow {
		return fmt.Sprintf("engine time went backwards: %v after %v", now, rt.lastNow), true
	}
	rt.lastNow = now
	return "", false
}

// checkBufferAccounting is the packet-conservation check inside a
// switch: shared-buffer occupancy must equal the data bytes actually
// sitting in egress queues. Any drift means bytes were created or
// destroyed outside the drop path.
func checkBufferAccounting(rt *Runtime) (string, bool) {
	for _, sw := range rt.Net.Switches() {
		sum := 0
		for _, p := range sw.Ports() {
			sum += p.DataQueueBytes()
		}
		if sw.BufferUsed() != sum || sw.BufferUsed() < 0 {
			return fmt.Sprintf("switch %s: bufferUsed=%d but queued data=%d",
				sw.Name, sw.BufferUsed(), sum), true
		}
	}
	return "", false
}

// checkQueueBound holds PFC to its promise: with pause generation on,
// occupancy stays near the shared Xoff trigger plus the in-flight skid
// of each ingress (packets already on the wire when Xoff lands).
func checkQueueBound(rt *Runtime) (string, bool) {
	for _, sw := range rt.Net.Switches() {
		if !sw.Buffer.PFCEnabled {
			continue
		}
		bound := netsim.SharedFactor*sw.Buffer.PFCThreshold + len(sw.Ports())*queueSlackBytes
		if sw.BufferUsed() > bound {
			return fmt.Sprintf("switch %s: buffer %d bytes past PFC bound %d",
				sw.Name, sw.BufferUsed(), bound), true
		}
	}
	return "", false
}

// checkPFCDeadlock looks for a pause-wait cycle: switch S waits on T
// when S's port toward T is paused (T told S to stop). A cycle means no
// switch in it can ever drain — the canonical PFC deadlock.
func checkPFCDeadlock(rt *Runtime) (string, bool) {
	// Under hybrid CC an instantaneous cycle is already pathological —
	// converged control keeps queues far from Xoff, so two switches
	// pausing each other means wedged state. PFC-only has no controller:
	// standing congestion makes momentary mutual pauses routine, and
	// Xon hysteresis resolves them. There a cycle only counts if it
	// outlives the run — the post-drain stuck_queue and stale_pause
	// checkers catch exactly that. Rogue-laden scenarios break the same
	// premise from the other side: a blast rogue ignores its controller
	// and drives queues to Xoff on purpose, so momentary mutual pauses
	// are the attack's expected physics, not a wedge — and where the
	// policer has no advertised contract to enforce (end-host schemes),
	// nothing stops them. The post-drain checkers and the watchdog's
	// liveness invariant still guard against a cycle that persists.
	if rt.Scenario.OperatingMode() == netsim.ModePFCOnly || rt.Scenario.RogueCount() > 0 {
		return "", false
	}
	if cycle := pauseWaitCycle(rt.Net.Switches()); cycle != "" {
		return "pause-wait cycle: " + cycle, true
	}
	return "", false
}

// PauseWaitCycle detects a directed cycle in the switch pause-wait
// graph, returning a printable cycle or "". Exported for probes outside
// the soak (the collective experiments watch for deadlock with it).
func PauseWaitCycle(switches []*netsim.Switch) string {
	return pauseWaitCycle(switches)
}

// pauseWaitCycle detects a directed cycle in the switch pause-wait
// graph, returning a printable cycle or "".
func pauseWaitCycle(switches []*netsim.Switch) string {
	adj := make(map[*netsim.Switch][]*netsim.Switch)
	for _, s := range switches {
		for _, p := range s.Ports() {
			if !p.Paused() {
				continue
			}
			if t, ok := p.PeerNode.(*netsim.Switch); ok {
				adj[s] = append(adj[s], t)
			}
		}
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*netsim.Switch]int)
	var stack []*netsim.Switch
	var dfs func(s *netsim.Switch) string
	dfs = func(s *netsim.Switch) string {
		color[s] = grey
		stack = append(stack, s)
		for _, t := range adj[s] {
			if color[t] == grey {
				cycle := ""
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = stack[i].Name + "->" + cycle
					if stack[i] == t {
						break
					}
				}
				return cycle + t.Name
			}
			if color[t] == white {
				if c := dfs(t); c != "" {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[s] = black
		return ""
	}
	for _, s := range switches {
		if color[s] == white {
			if c := dfs(s); c != "" {
				return c
			}
		}
	}
	return ""
}

// checkPauseStorm is the max-pause-span watchdog: one pause interval
// (completed or still running) exceeding the budget means an upstream
// queue has been wedged far longer than any healthy drain takes.
func checkPauseStorm(rt *Runtime) (string, bool) {
	if span := rt.Net.LongestPauseSpan(); span > maxPauseSpan {
		return fmt.Sprintf("pause span %v exceeds budget %v", span, maxPauseSpan), true
	}
	return "", false
}

// checkRPRate pins Alg. 2's state machine: an installed reaction point's
// rate is positive, finite, and below the ValidCNP admission ceiling. A
// rate outside that band means corrupt feedback steered the limiter.
func checkRPRate(rt *Runtime) (string, bool) {
	for i, rp := range rt.RoCCRPs {
		r := rp.RateMbps()
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Sprintf("RP %d rate %v escaped (0, Rbound]", i, r), true
		}
		if bound := rp.RateBoundMbps(); bound > 0 && r > bound {
			return fmt.Sprintf("RP %d rate %.1f Mbps above validation bound %.1f", i, r, bound), true
		}
	}
	return "", false
}

// checkFlowConservation: a receiver can never have contiguously
// delivered more payload than the sender emitted. Skipped when a
// data-scope duplicate fault is configured (duplicates legitimately
// inflate unreliable delivery).
func checkFlowConservation(rt *Runtime) (string, bool) {
	if rt.hasDupData {
		return "", false
	}
	for i, f := range rt.Flows {
		if f == nil {
			continue
		}
		if f.DeliveredBytes() > f.SentBytes() {
			return fmt.Sprintf("flow %d delivered %d > sent %d", i, f.DeliveredBytes(), f.SentBytes()), true
		}
	}
	return "", false
}

// checkLosslessDrops: a fabric with PFC on every switch must not tail
// drop — pause is supposed to fire first. The planted misconfiguration
// (PFC threshold above the buffer size) is caught exactly here.
func checkLosslessDrops(rt *Runtime) (string, bool) {
	for _, sw := range rt.Net.Switches() {
		if !sw.Buffer.PFCEnabled {
			return "", false
		}
	}
	if d := rt.Net.TotalDrops(); d > 0 {
		return fmt.Sprintf("%d tail drops in a PFC-lossless fabric", d), true
	}
	return "", false
}

// checkStuckQueue runs after the drain grace: every fault schedule has
// quiesced and every flow is stopped, so data still queued (or a pause
// still asserted against queued data) can never clear — the residue
// form of both deadlock and conservation failure.
func checkStuckQueue(rt *Runtime) (string, bool) {
	for _, sw := range rt.Net.Switches() {
		if sw.BufferUsed() != 0 {
			return fmt.Sprintf("switch %s holds %d bytes after drain", sw.Name, sw.BufferUsed()), true
		}
		for _, p := range sw.Ports() {
			if p.DataQueueBytes() > 0 {
				return fmt.Sprintf("switch %s port %d queues %d bytes after drain",
					sw.Name, p.Index, p.DataQueueBytes()), true
			}
		}
	}
	return "", false
}

// checkPacketAccounting polices the packet pool's ledger while the run is
// live: the outstanding count can only go negative through a double
// release (each acquire adds one, each release subtracts one).
func checkPacketAccounting(rt *Runtime) (string, bool) {
	if live := rt.Net.OutstandingPackets(); live < 0 {
		return fmt.Sprintf("outstanding pooled packets %d < 0 (double release)", live), true
	}
	return "", false
}

// checkPacketAccountingFinal closes the ledger after the drain grace: the
// engine queue is empty, so every packet still charged to the simulation
// must be parked in a port queue (normally zero of both). A surplus means
// a terminal point forgot to release; a deficit means a double release.
func checkPacketAccountingFinal(rt *Runtime) (string, bool) {
	live := rt.Net.OutstandingPackets()
	queued := int64(rt.Net.QueuedPackets())
	if live != queued {
		return fmt.Sprintf("%d pooled packets outstanding after drain but %d parked in queues (leak or double release)",
			live, queued), true
	}
	return "", false
}

// checkFairness is the eventual-convergence invariant (§6.1 / Fig. 11),
// applied only where it is well-posed: a clean star run whose persistent
// flows all share the one bottleneck. Jain's index over second-half
// throughput must clear a deliberately loose floor — the monitor is for
// catastrophic starvation, not protocol ranking. In mixed-protocol
// scenarios the index is computed within each protocol group separately:
// convergence to a fair share is a promise each scheme makes among its
// own flows, while the inter-protocol split is precisely what rollout
// experiments measure and no scheme guarantees.
func checkFairness(rt *Runtime) (string, bool) {
	if len(rt.Scenario.Faults) > 0 || rt.Scenario.Topology.Kind != TopoStar {
		return "", false
	}
	// Fair convergence is a congestion-control promise, and only the
	// hybrid discipline makes it cleanly: PFC-only has no controller
	// (pause fairness is famously poor — that asymmetry is a finding,
	// not a bug), and lossy timeouts skew shares.
	if rt.Scenario.OperatingMode() != netsim.ModeHybrid {
		return "", false
	}
	groups := make(map[string][]float64)
	for i, fs := range rt.Scenario.Flows {
		if fs.SizeBytes != -1 || rt.Flows[i] == nil || rt.midBytes == nil {
			continue
		}
		// Only flows live for the whole measurement window count.
		if fs.StartNs > rt.Scenario.DurationNs/2 {
			continue
		}
		// Rogue and policed flows are outside the fairness contract: a
		// rogue took itself out of the control loop, and a quarantined
		// flow is being deliberately starved to a penalty rate — counting
		// either would fail honest scenarios for containing the attack.
		if fs.Rogue != "" || rt.flowQuarantined(rt.Flows[i].ID) {
			continue
		}
		proto := string(rt.Scenario.FlowProtocol(i))
		groups[proto] = append(groups[proto], float64(rt.Flows[i].DeliveredBytes()-rt.midBytes[i]))
	}
	for proto, xs := range groups {
		if len(xs) < 2 {
			continue
		}
		var sum, sumSq float64
		for _, x := range xs {
			sum += x
			sumSq += float64(x * x)
		}
		if sumSq == 0 {
			return fmt.Sprintf("%d persistent %s flows delivered nothing in the second half", len(xs), proto), true
		}
		jain := sum * sum / (float64(len(xs)) * sumSq)
		if jain < minJain {
			return fmt.Sprintf("%s Jain index %.3f below floor %.3f over %d flows", proto, jain, minJain, len(xs)), true
		}
	}
	return "", false
}

// checkBlackhole runs after the drain: once a kill's restore has
// reconverged, the routing tables must be whole again and no packet may
// blackhole past the recovery snapshot — a later no-route drop means a
// permanent hole, not a window.
func checkBlackhole(rt *Runtime) (string, bool) {
	if !rt.recoverSet {
		return "", false
	}
	if detail, ok := rt.Net.RoutesComplete(); !ok {
		return "routes incomplete after restore: " + detail, true
	}
	if d := rt.Net.BlackholeDrops(); d > rt.blackholeAtRecovery {
		return fmt.Sprintf("%d blackhole drops after reconvergence (total %d)",
			d-rt.blackholeAtRecovery, d), true
	}
	return "", false
}

// checkRecovery is the bounded-recovery invariant: a persistent flow that
// was alive when the fabric healed must deliver bytes between the
// recovery snapshot and the end of the run. Silence across that whole
// stretch means the failure permanently wedged the flow (a dead rate
// limiter, an unrecovered route, a stuck pause) rather than dipping it.
func checkRecovery(rt *Runtime) (string, bool) {
	if !rt.recoverSet || !rt.liveAtRecovery {
		return "", false
	}
	var total int64
	for _, f := range rt.Flows {
		if f != nil {
			total += f.DeliveredBytes()
		}
	}
	if total <= rt.recoverBytes {
		return fmt.Sprintf("no bytes delivered after restore (stuck at %d)", total), true
	}
	return "", false
}

// flowQuarantined reports whether any attached policer currently holds
// the flow at a penalty rate.
func (rt *Runtime) flowQuarantined(fid netsim.FlowID) bool {
	for _, p := range rt.Policers {
		if p.Quarantined(fid) {
			return true
		}
	}
	return false
}

// checkVictimFloor is the containment invariant: on a defended scenario
// with rogue senders, the honest flows must still deliver — the policer
// exists so an adversary cannot starve the fabric, and a zero-byte
// victim population means either the defense failed or (worse) it
// quarantined the victims instead of the rogues.
func checkVictimFloor(rt *Runtime) (string, bool) {
	if len(rt.Policers) == 0 || rt.Scenario.RogueCount() == 0 {
		return "", false
	}
	victims := 0
	var delivered int64
	for i, f := range rt.Flows {
		if f == nil || rt.Scenario.Flows[i].Rogue != "" {
			continue
		}
		victims++
		delivered += f.DeliveredBytes()
	}
	if victims > 0 && delivered == 0 {
		return fmt.Sprintf("%d honest flows delivered zero bytes under policing", victims), true
	}
	return "", false
}

// checkWatchdogLive is the mitigation-liveness invariant: disabling a
// port's lossless class is an intervention, and interventions must
// unwind — a port still disabled past its recorded cooldown deadline
// means the re-enable was lost and the port drops data forever.
func checkWatchdogLive(rt *Runtime) (string, bool) {
	for _, w := range rt.Watchdogs {
		if w.StuckDisabled(rt.Engine.Now()) {
			return fmt.Sprintf("%d ports lossless-disabled past their cooldown deadline", w.DisabledPorts()), true
		}
	}
	return "", false
}

// checkQuarantineLedger closes the policer's books: releases can never
// outnumber detections, and the flows held right now must equal the
// difference — anything else means quarantine state leaked or was
// double-counted.
func checkQuarantineLedger(rt *Runtime) (string, bool) {
	for _, p := range rt.Policers {
		st := p.Stats()
		if st.Releases > st.Detections {
			return fmt.Sprintf("%d releases exceed %d detections", st.Releases, st.Detections), true
		}
		if got := p.CurrentQuarantined(); got != st.Detections-st.Releases {
			return fmt.Sprintf("%d flows quarantined but ledger says %d-%d",
				got, st.Detections, st.Releases), true
		}
	}
	return "", false
}

// checkStalePause runs after the drain on every scenario: with all flows
// stopped, all fault schedules quiesced and all queues empty, every PFC
// pause must have been released. A pause that survives the drain can
// never clear — the residue form of a pause-state leak (the stale-pause
// class of bug the flap/kill restore paths guard against).
func checkStalePause(rt *Runtime) (string, bool) {
	for _, sw := range rt.Net.Switches() {
		for _, p := range sw.Ports() {
			if p.Paused() {
				return fmt.Sprintf("switch %s port %d still paused after drain", sw.Name, p.Index), true
			}
		}
	}
	for _, h := range rt.Net.Hosts() {
		for _, p := range h.Ports() {
			if p.Paused() {
				return fmt.Sprintf("host %s NIC still paused after drain", h.Name), true
			}
		}
	}
	return "", false
}

// sampleCheckers run on every monitor tick; finalCheckers once after the
// drain grace.
var sampleCheckers = []struct {
	name string
	fn   checker
}{
	{InvTimeMonotonic, checkTimeMonotonic},
	{InvBufferAccounting, checkBufferAccounting},
	{InvQueueBound, checkQueueBound},
	{InvPFCDeadlock, checkPFCDeadlock},
	{InvPauseStorm, checkPauseStorm},
	{InvRPRateBounds, checkRPRate},
	{InvFlowConservation, checkFlowConservation},
	{InvLosslessDrops, checkLosslessDrops},
	{InvPacketAccounting, checkPacketAccounting},
	{InvQuarantine, checkQuarantineLedger},
}

var finalCheckers = []struct {
	name string
	fn   checker
}{
	{InvStuckQueue, checkStuckQueue},
	{InvLosslessDrops, checkLosslessDrops},
	{InvFlowConservation, checkFlowConservation},
	{InvFairness, checkFairness},
	{InvPacketAccounting, checkPacketAccountingFinal},
	{InvBlackhole, checkBlackhole},
	{InvRecovery, checkRecovery},
	{InvStalePause, checkStalePause},
	{InvVictimFloor, checkVictimFloor},
	{InvWatchdogLive, checkWatchdogLive},
	{InvQuarantine, checkQuarantineLedger},
}
