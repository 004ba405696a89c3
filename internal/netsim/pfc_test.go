package netsim

import (
	"testing"

	"rocc/internal/sim"
)

// congested builds a 2-source incast into a slow egress so queues grow.
func congested(buf BufferConfig) (*sim.Engine, *Network, []*Host, *Host, *Switch, *Port) {
	engine := sim.New()
	net := New(engine, 1)
	sw := net.AddSwitch("s", buf)
	dst := net.AddHost("dst")
	var srcs []*Host
	for i := 0; i < 2; i++ {
		h := net.AddHost("src")
		net.Connect(h, sw, Gbps(40), 1500)
		srcs = append(srcs, h)
	}
	egress, _ := net.Connect(sw, dst, Gbps(40), 1500)
	net.ComputeRoutes()
	return engine, net, srcs, dst, sw, egress
}

func TestPFCPausesAndResumes(t *testing.T) {
	engine, net, srcs, dst, sw, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 100 * KB,
	})
	var flows []*Flow
	for _, s := range srcs {
		flows = append(flows, net.StartFlow(s, dst, FlowConfig{Size: -1}))
	}
	engine.RunUntil(sim.Millisecond)
	if sw.PauseFrames == 0 {
		t.Fatal("overloaded switch sent no pause frames")
	}
	if sw.ResumeFrames == 0 {
		t.Fatal("no resume frames despite ongoing drain")
	}
	// PFC must keep the buffer bounded: shared trigger at 2x threshold,
	// plus at most a propagation+serialization skid.
	if sw.MaxBufferUsed > 2*100*KB+50*KB {
		t.Errorf("buffer reached %d bytes despite PFC", sw.MaxBufferUsed)
	}
	// Lossless: nothing dropped.
	if sw.Drops != 0 {
		t.Errorf("drops = %d with PFC enabled", sw.Drops)
	}
	for _, f := range flows {
		f.Stop()
	}
}

func TestPFCLossless(t *testing.T) {
	// Every byte sent during a PFC storm must still arrive.
	engine, net, srcs, dst, _, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 50 * KB,
	})
	size := int64(2_000_000)
	f1 := net.StartFlow(srcs[0], dst, FlowConfig{Size: size})
	f2 := net.StartFlow(srcs[1], dst, FlowConfig{Size: size})
	engine.RunUntil(20 * sim.Millisecond)
	if !f1.Done() || !f2.Done() {
		t.Fatal("flows did not complete under PFC")
	}
	if f1.DeliveredBytes() != size || f2.DeliveredBytes() != size {
		t.Error("bytes lost despite lossless configuration")
	}
}

func TestHostRespectsPause(t *testing.T) {
	engine, net, srcs, dst, sw, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 50 * KB,
	})
	f := net.StartFlow(srcs[0], dst, FlowConfig{Size: -1})
	net.StartFlow(srcs[1], dst, FlowConfig{Size: -1})
	// Run until a pause fires, then verify the host NIC is paused.
	for sw.PauseFrames == 0 && engine.Now() < 10*sim.Millisecond {
		engine.Step()
	}
	if sw.PauseFrames == 0 {
		t.Fatal("no pause generated")
	}
	// Advance past the pause frame's flight time.
	engine.RunUntil(engine.Now() + 10*sim.Microsecond)
	paused := srcs[0].NIC().Paused() || srcs[1].NIC().Paused()
	if !paused {
		t.Error("no source NIC paused after Xoff")
	}
	f.Stop()
}

func TestLossyTailDrop(t *testing.T) {
	engine, net, srcs, dst, sw, _ := congested(BufferConfig{
		TotalBytes: 50 * KB,
	})
	f1 := net.StartFlow(srcs[0], dst, FlowConfig{Size: -1})
	f2 := net.StartFlow(srcs[1], dst, FlowConfig{Size: -1})
	engine.RunUntil(sim.Millisecond)
	if sw.Drops == 0 {
		t.Error("no drops despite tiny lossy buffer")
	}
	if sw.MaxBufferUsed > 50*KB {
		t.Errorf("buffer %d exceeded its cap", sw.MaxBufferUsed)
	}
	if sw.PauseFrames != 0 {
		t.Error("pause frames sent with PFC disabled")
	}
	f1.Stop()
	f2.Stop()
}

func TestGoBackNRecoversFromLoss(t *testing.T) {
	engine, net, srcs, dst, _, _ := congested(BufferConfig{
		TotalBytes: 30 * KB, // small enough to force drops
	})
	size := int64(500_000)
	f1 := net.StartFlow(srcs[0], dst, FlowConfig{Size: size, Reliable: true, RTO: 200 * sim.Microsecond})
	f2 := net.StartFlow(srcs[1], dst, FlowConfig{Size: size, Reliable: true, RTO: 200 * sim.Microsecond})
	engine.RunUntil(200 * sim.Millisecond)
	if !f1.Done() || !f2.Done() {
		t.Fatalf("reliable flows incomplete: %d/%d and %d/%d bytes",
			f1.DeliveredBytes(), size, f2.DeliveredBytes(), size)
	}
	if net.RetxBytesTotal == 0 {
		t.Error("no retransmissions recorded despite drops")
	}
}

func TestGoBackNWithoutLossHasNoRetx(t *testing.T) {
	engine, net, a, b, _ := func() (*sim.Engine, *Network, *Host, *Host, *Switch) {
		return pair(Gbps(40))
	}()
	f := net.StartFlow(a, b, FlowConfig{Size: 300_000, Reliable: true})
	engine.RunUntil(10 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if net.RetxBytesTotal != 0 {
		t.Errorf("spurious retransmissions: %d bytes", net.RetxBytesTotal)
	}
}

func TestBufferConfigDefaults(t *testing.T) {
	b := BufferConfig{PFCThreshold: 500 * KB}
	if got := b.resume(); got != 480*KB {
		t.Errorf("resume = %d, want threshold-20KB", got)
	}
	b.PFCResume = 100
	if b.resume() != 100 {
		t.Error("explicit resume ignored")
	}
	tiny := BufferConfig{PFCThreshold: 30 * KB}
	if got := tiny.resume(); got != 15*KB {
		t.Errorf("tiny resume = %d, want half threshold", got)
	}
	s := BufferConfig{PFCThreshold: 100}
	if s.sharedXoff() != 200 {
		t.Errorf("sharedXoff = %d, want 2x threshold", s.sharedXoff())
	}
}

// TestPFCStateClearedByLinkFlap is the regression test for pause state
// surviving a link flap: 802.1Qbb pause is link-local, so when a link
// drops and re-establishes, the receiver's pause deadline and the
// sender's Xoff bookkeeping must both reset. Otherwise a resume frame
// lost to the outage wedges the host paused forever.
func TestPFCStateClearedByLinkFlap(t *testing.T) {
	engine, net, srcs, dst, sw, _ := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 40 * KB,
	})
	net.StartFlow(srcs[0], dst, FlowConfig{Size: -1})
	net.StartFlow(srcs[1], dst, FlowConfig{Size: -1})
	for sw.PauseFrames == 0 && engine.Now() < 10*sim.Millisecond {
		engine.Step()
	}
	engine.RunUntil(engine.Now() + 10*sim.Microsecond)
	var host *Host
	for _, s := range srcs {
		if s.NIC().Paused() {
			host = s
		}
	}
	if host == nil {
		t.Fatal("no source paused after Xoff")
	}
	hostPort, swPort := host.NIC(), sw.PortTo(host)
	if !sw.pausedIngress[swPort.Index] {
		t.Fatal("switch has no Xoff record for the paused ingress")
	}
	// Flap: both ends down (the outage would eat any resume frame), then
	// back up.
	swPort.SetLinkDown(true)
	hostPort.SetLinkDown(true)
	engine.RunUntil(engine.Now() + 100*sim.Microsecond)
	swPort.SetLinkDown(false)
	hostPort.SetLinkDown(false)
	if hostPort.Paused() {
		t.Error("pause state survived the link flap")
	}
	if sw.pausedIngress[swPort.Index] {
		t.Error("switch Xoff record survived the link flap")
	}
	// The incast is still running, so congestion must re-pause the
	// ingress through the normal path — the cleared record may not block
	// future pause generation.
	before := sw.PauseFrames
	engine.RunUntil(engine.Now() + sim.Millisecond)
	if sw.PauseFrames == before {
		t.Error("no re-pause after the flap despite ongoing congestion")
	}
}

func TestPauseFrameStopsOnlyData(t *testing.T) {
	engine, net, srcs, dst, sw, egress := congested(BufferConfig{
		PFCEnabled:   true,
		PFCThreshold: 40 * KB,
	})
	f := net.StartFlow(srcs[0], dst, FlowConfig{Size: -1})
	net.StartFlow(srcs[1], dst, FlowConfig{Size: -1})
	for sw.PauseFrames == 0 && engine.Now() < 10*sim.Millisecond {
		engine.Step()
	}
	engine.RunUntil(engine.Now() + 10*sim.Microsecond)
	// A CNP injected now must still reach the (paused) source.
	before := srcs[0].CNPsRx
	sw.Inject(&Packet{Flow: f.ID, Src: sw.ID(), Dst: srcs[0].ID(), Kind: KindCNP, Cls: ClassCtrl, Size: CNPBytes})
	engine.RunUntil(engine.Now() + 100*sim.Microsecond)
	if srcs[0].CNPsRx != before+1 {
		t.Error("control traffic blocked by PFC pause")
	}
	_ = egress
}
