package main

import (
	"time"

	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// The timing wrappers sit between netsim and a protocol's FlowCC, PortCC
// and ReceiverHook, the way adversary.Rogue sits between netsim and a
// sender: every call is forwarded unchanged, so the simulation cannot
// tell they are there (bench_test.go holds traced and untraced digests
// equal for all seven protocols). They are not safe for concurrent use
// and so are interposed on single-threaded (1-shard) runs only.

// sampleEvery is how often a wrapped call is timed. Calls are counted
// exactly; reading the clock twice on every call would cost more than
// most of the callbacks being measured.
const sampleEvery = 16

// callStats accumulates one wrapped method: calls counted exactly, time
// sampled on every sampleEvery-th call.
type callStats struct {
	Calls   uint64 `json:"calls"`
	Sampled uint64 `json:"sampled"`
	Ns      int64  `json:"sampled_ns"`

	// floor is what an empty timed interval reads on this machine: the
	// cost of the two clock reads themselves, taken off every sample. Most
	// wrapped callbacks run for about as long as the clock takes to read,
	// so leaving it in would double them.
	floor int64
}

func (c *callStats) begin() (time.Time, bool) {
	c.Calls++
	if c.Calls%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *callStats) end(t time.Time) {
	c.Sampled++
	if ns := time.Since(t).Nanoseconds() - c.floor; ns > 0 {
		c.Ns += ns
	}
}

func measureClockFloor() int64 {
	floor := int64(1 << 62)
	for i := 0; i < 2000; i++ {
		if ns := time.Since(time.Now()).Nanoseconds(); ns < floor {
			floor = ns
		}
	}
	return floor
}

// meanNs is the mean host time of one call, from the sampled calls.
func (c callStats) meanNs() float64 {
	if c.Sampled == 0 {
		return 0
	}
	return float64(c.Ns) / float64(c.Sampled)
}

// totalS extrapolates the sampled mean to every call.
func (c callStats) totalS() float64 { return c.meanNs() * float64(c.Calls) / 1e9 }

// layerStats is one protocol layer's wrapped methods.
type layerStats struct {
	Ack    callStats `json:"ack"`
	CNP    callStats `json:"cnp"`
	Allow  callStats `json:"allow"`
	Sent   callStats `json:"sent"`
	PortCC callStats `json:"portcc"`
	Recv   callStats `json:"recv"`
}

// newLayerStats returns empty statistics with the clock floor calibrated.
func newLayerStats() *layerStats {
	f := measureClockFloor()
	c := callStats{floor: f}
	return &layerStats{Ack: c, CNP: c, Allow: c, Sent: c, PortCC: c, Recv: c}
}

func (l *layerStats) each() []callStats {
	return []callStats{l.Ack, l.CNP, l.Allow, l.Sent, l.PortCC, l.Recv}
}

// calls is the number of wrapped calls made, each of which paid the
// wrapper's own pass-through cost.
func (l *layerStats) calls() uint64 {
	n := uint64(0)
	for _, c := range l.each() {
		n += c.Calls
	}
	return n
}

// totalS is the host time spent inside the layer's callbacks.
func (l *layerStats) totalS() float64 {
	s := 0.0
	for _, c := range l.each() {
		s += c.totalS()
	}
	return s
}

// timedFlowCC wraps a sender-side controller.
type timedFlowCC struct {
	inner netsim.FlowCC
	st    *layerStats
}

func (w *timedFlowCC) Allow(now sim.Time, payload int) (sim.Time, bool) {
	t, on := w.st.Allow.begin()
	at, ok := w.inner.Allow(now, payload)
	if on {
		w.st.Allow.end(t)
	}
	return at, ok
}

func (w *timedFlowCC) OnSent(now sim.Time, pkt *netsim.Packet) {
	t, on := w.st.Sent.begin()
	w.inner.OnSent(now, pkt)
	if on {
		w.st.Sent.end(t)
	}
}

func (w *timedFlowCC) OnAck(now sim.Time, pkt *netsim.Packet) {
	t, on := w.st.Ack.begin()
	w.inner.OnAck(now, pkt)
	if on {
		w.st.Ack.end(t)
	}
}

func (w *timedFlowCC) OnCNP(now sim.Time, pkt *netsim.Packet) {
	t, on := w.st.CNP.begin()
	w.inner.OnCNP(now, pkt)
	if on {
		w.st.CNP.end(t)
	}
}

func (w *timedFlowCC) CurrentRate() netsim.Rate { return w.inner.CurrentRate() }

// OnReroute forwards netsim.RouteAware.
func (w *timedFlowCC) OnReroute(now sim.Time) {
	if ra, ok := w.inner.(netsim.RouteAware); ok {
		ra.OnReroute(now)
	}
}

// OnRewind forwards netsim.RetxAware.
func (w *timedFlowCC) OnRewind(now sim.Time, seq int64) {
	if ra, ok := w.inner.(netsim.RetxAware); ok {
		ra.OnRewind(now, seq)
	}
}

// Stop forwards flow teardown so the inner controller's timers are
// cancelled.
func (w *timedFlowCC) Stop() {
	if s, ok := w.inner.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// timedPortCC wraps a switch-side element.
type timedPortCC struct {
	inner netsim.PortCC
	st    *layerStats
}

func (w *timedPortCC) OnEnqueue(now sim.Time, pkt *netsim.Packet, qlen int) {
	t, on := w.st.PortCC.begin()
	w.inner.OnEnqueue(now, pkt, qlen)
	if on {
		w.st.PortCC.end(t)
	}
}

func (w *timedPortCC) OnDequeue(now sim.Time, pkt *netsim.Packet, qlen int) {
	t, on := w.st.PortCC.begin()
	w.inner.OnDequeue(now, pkt, qlen)
	if on {
		w.st.PortCC.end(t)
	}
}

// timedReceiver wraps a destination-side hook.
type timedReceiver struct {
	inner netsim.ReceiverHook
	st    *layerStats
}

func (w *timedReceiver) OnData(now sim.Time, pkt *netsim.Packet) *netsim.Packet {
	t, on := w.st.Recv.begin()
	resp := w.inner.OnData(now, pkt)
	if on {
		w.st.Recv.end(t)
	}
	return resp
}

// wrapFabric interposes the wrappers on every attached switch port and
// receiver of a wired network. Call it after the Mix wiring sweeps.
func wrapFabric(net *netsim.Network, st *layerStats) {
	for _, sw := range net.Switches() {
		for _, p := range sw.Ports() {
			if p.CC != nil {
				p.CC = &timedPortCC{inner: p.CC, st: st}
			}
		}
	}
	for _, h := range net.Hosts() {
		if h.Receiver != nil {
			h.Receiver = &timedReceiver{inner: h.Receiver, st: st}
		}
	}
}

// wrapFlow returns the StartWrappedFlow interposer for st, or nil when
// the run is not wrapped (a nil wrap is a plain flow start).
func wrapFlow(st *layerStats) func(netsim.FlowCC) netsim.FlowCC {
	if st == nil {
		return nil
	}
	return func(cc netsim.FlowCC) netsim.FlowCC { return &timedFlowCC{inner: cc, st: st} }
}
