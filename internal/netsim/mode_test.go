package netsim

import (
	"testing"

	"rocc/internal/sim"
)

// FuzzParseOperatingMode: any name ParseOperatingMode accepts names a
// mode whose String parses back to it.
func FuzzParseOperatingMode(f *testing.F) {
	for _, s := range []string{"", "hybrid", "pfc", "pfc-only", "lossy", "cconlylossy", "unknown", "Hybrid"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseOperatingMode(s)
		if err != nil {
			return
		}
		back, err := ParseOperatingMode(m.String())
		if err != nil || back != m {
			t.Fatalf("%q parsed to %v, whose String %q parses to %v, %v", s, m, m.String(), back, err)
		}
	})
}

func TestOperatingModeRoundTrip(t *testing.T) {
	for _, m := range AllOperatingModes() {
		got, err := ParseOperatingMode(m.String())
		if err != nil {
			t.Fatalf("ParseOperatingMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseOperatingMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if m, err := ParseOperatingMode(""); err != nil || m != ModeHybrid {
		t.Fatalf("empty mode: got %v, %v; want hybrid", m, err)
	}
	if _, err := ParseOperatingMode("bogus"); err == nil {
		t.Fatal("ParseOperatingMode accepted a bogus mode")
	}
}

func TestOperatingModeProperties(t *testing.T) {
	cases := []struct {
		mode     OperatingMode
		cc       bool
		lossless bool
	}{
		{ModeHybrid, true, true},
		{ModePFCOnly, false, true},
		{ModeCCOnlyLossy, true, false},
	}
	for _, c := range cases {
		if c.mode.CCEnabled() != c.cc {
			t.Errorf("%v CCEnabled = %v, want %v", c.mode, c.mode.CCEnabled(), c.cc)
		}
		if c.mode.Lossless() != c.lossless {
			t.Errorf("%v Lossless = %v, want %v", c.mode, c.mode.Lossless(), c.lossless)
		}
	}
}

func TestOperatingModeBufferConfig(t *testing.T) {
	const thr = 500 * KB
	hybrid := ModeHybrid.BufferConfig(thr)
	if !hybrid.PFCEnabled || hybrid.PFCThreshold != thr || hybrid.TotalBytes != 0 {
		t.Fatalf("hybrid buffer config %+v", hybrid)
	}
	pfc := ModePFCOnly.BufferConfig(thr)
	if pfc != hybrid {
		t.Fatalf("pfconly buffer %+v differs from hybrid %+v", pfc, hybrid)
	}
	lossy := ModeCCOnlyLossy.BufferConfig(thr)
	if lossy.PFCEnabled || lossy.TotalBytes != 3*thr {
		t.Fatalf("cconly buffer config %+v", lossy)
	}
}

// Applying the hybrid mode to a freshly built lossless fabric must be an
// identity: the topology builders and the mode helper agree on what a
// hybrid switch looks like.
func TestApplyHybridIsIdentity(t *testing.T) {
	net := New(sim.New(), 1)
	sw := net.AddSwitch("s0", BufferConfig{PFCEnabled: true, PFCThreshold: 500 * KB})
	before := sw.Buffer
	ModeHybrid.Apply(net.Switches())
	if sw.Buffer != before {
		t.Fatalf("hybrid Apply changed the config: %+v -> %+v", before, sw.Buffer)
	}
	ModeCCOnlyLossy.Apply(net.Switches())
	if sw.Buffer.PFCEnabled || sw.Buffer.TotalBytes != 3*500*KB {
		t.Fatalf("cconly Apply produced %+v", sw.Buffer)
	}
}
