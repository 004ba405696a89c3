// Package dcqcnpi implements DCQCN+PI ([45]: Zhu et al., CoNEXT 2016),
// the variant the RoCC paper cites as evidence for PI control: DCQCN's
// endpoints are kept unchanged, but the switch's RED-style marking curve
// is replaced by a PIE-like PI controller that adapts the marking
// probability from the queue's deviation from a reference and its trend.
package dcqcnpi

import (
	"rocc/internal/dcqcn"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// Config holds the PI marking parameters.
type Config struct {
	QrefBytes int      // reference queue length
	A         float64  // proportional gain on (Q-Qref)/Qref per update
	B         float64  // derivative gain on (Q-Qold)/Qref per update
	T         sim.Time // update interval
}

// DefaultConfig returns PI marking parameters for a gbps egress link,
// using the same reference queue the RoCC CP would target.
func DefaultConfig(gbps float64) Config {
	qref := 150 * netsim.KB
	if gbps > 40 {
		qref = 300 * netsim.KB
	}
	return Config{
		QrefBytes: qref,
		A:         0.01,
		B:         0.1,
		T:         40 * sim.Microsecond,
	}
}

// Marker is the PI-controlled ECN marker for one egress port. Attach via
// Port.CC; endpoints use dcqcn.Receiver and dcqcn.FlowCC unchanged.
type Marker struct {
	cfg  Config
	port *netsim.Port
	rand *sim.Rand
	tick *sim.Ticker

	p    float64 // marking probability
	qold int

	Marked uint64
}

// Attach installs a PI marker on the given egress port and starts its
// update timer.
func Attach(net *netsim.Network, port *netsim.Port, cfg Config, rand *sim.Rand) *Marker {
	m := &Marker{cfg: cfg, port: port, rand: rand}
	port.CC = m
	m.tick = port.Engine().NewTicker(cfg.T, m.update)
	return m
}

// Stop cancels the update timer.
func (m *Marker) Stop() { m.tick.Stop() }

// update is the PI iteration: p tracks queue error and queue growth.
func (m *Marker) update() {
	q := m.port.DataQueueBytes()
	ref := float64(m.cfg.QrefBytes)
	m.p += m.cfg.A*(float64(q)-ref)/ref + m.cfg.B*float64(q-m.qold)/ref
	if m.p < 0 {
		m.p = 0
	}
	if m.p > 1 {
		m.p = 1
	}
	m.qold = q
}

// OnEnqueue implements netsim.PortCC: mark with the controlled probability.
func (m *Marker) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	if !pkt.ECT || m.p <= 0 {
		return
	}
	if m.rand.Float64() < m.p {
		pkt.CE = true
		m.Marked++
	}
}

// OnDequeue implements netsim.PortCC.
func (m *Marker) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {}

// DefaultEndpoint returns the DCQCN endpoint configuration to pair with
// the PI marker (unchanged endpoints, per [45]).
func DefaultEndpoint(gbps float64) dcqcn.Config { return dcqcn.DefaultConfig(gbps) }
