//go:build poolcheck

package netsim

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic under poolcheck", what)
		}
	}()
	fn()
}

func TestPoolcheckDoubleReleasePanics(t *testing.T) {
	net, h := poolFixture()
	pkt := net.AcquirePacket(h)
	net.ReleasePacket(pkt)
	mustPanic(t, "double release", func() { net.ReleasePacket(pkt) })
}

func TestPoolcheckUseAfterReleasePanics(t *testing.T) {
	net, h := poolFixture()
	pkt := net.AcquirePacket(h)
	pkt.checkLive("test use") // live: must not panic
	net.ReleasePacket(pkt)
	mustPanic(t, "use after release", func() { pkt.checkLive("test use") })
}

func TestPoolcheckUnpooledPacketExempt(t *testing.T) {
	pkt := &Packet{Seq: 1}
	pkt.checkLive("hand-built") // never pooled, never checked
}
