package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/netsim"
	"rocc/internal/sim"
)

// stormHook wedges S0's egress toward S1 of a multibottleneck fabric
// from the first sample on, the way a storming peer NIC holds a pause,
// until the storm watchdog disables the port's lossless class. While the
// class is off it keeps sending pause frames, which the port must
// ignore.
func stormHook() CustomMonitor {
	stormed := false
	return CustomMonitor{Name: "storm", Sample: func(rt *Runtime) (string, bool) {
		sw := rt.Net.Switches()
		port := sw[0].PortTo(sw[1])
		switch {
		case port.LosslessOff():
			stormed = true
			pause := rt.Net.AcquirePacket(sw[0])
			pause.Kind, pause.Cls, pause.Size = netsim.KindPause, netsim.ClassCtrl, netsim.PauseBytes
			pause.PauseOn, pause.SendTS = true, rt.Engine.Now()
			sw[0].Arrive(pause, port.Index)
		case !stormed:
			port.SetPaused(true)
		}
		return "", false
	}}
}

// hopCapHook lowers the fabric's hop cap below a fat-tree's
// edge-core-edge diameter, so cross-edge packets are dropped as loops.
func hopCapHook() CustomMonitor {
	return CustomMonitor{Name: "hopcap", Sample: func(rt *Runtime) (string, bool) {
		rt.Net.MaxHops = 2
		return "", false
	}}
}

// TestRegistrySnapshotGolden pins the metrics registry's text snapshot
// after defended, faulted, killed, lossy and stormed chaos runs. Between
// them every fabric count the registry reports reads non-zero at least
// once, so a change to how a count reaches the registry cannot hide
// behind a zero.
func TestRegistrySnapshotGolden(t *testing.T) {
	storm := Scenario{
		Seed:       5,
		Protocol:   "DCQCN",
		Topology:   TopologySpec{Kind: TopoMultiBottleneck},
		DurationNs: int64(8 * sim.Millisecond),
		Defended:   true,
	}
	for i := 0; i < 4; i++ { // A_i -> B_(i+1): only the wedged S0 -> S1 link is shared
		storm.Flows = append(storm.Flows, FlowSpec{Src: i, Dst: 7 + i, SizeBytes: -1})
	}
	cases := []struct {
		name string
		sc   Scenario
		hook []CustomMonitor
	}{
		{"defended", containedRogueScenario(), nil},
		{"faulted", coOccurringFaultsScenario(), nil},
		{"killed", fatTreeKillScenario(), nil},
		{"lossy", lossyIncastScenario(), nil},
		{"stale", Generate(125, GenOptions{RogueProb: 1}), nil},
		{"storm", storm, []CustomMonitor{stormHook()}},
		{"hopcap", fatTreeKillScenario(), []CustomMonitor{hopCapHook()}},
	}
	var got strings.Builder
	for _, c := range cases {
		tel := experiments.NewRunTelemetry()
		if _, err := Run(c.sc, RunOptions{Telemetry: tel, Custom: c.hook}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.WriteString("== " + c.name + "\n")
		if err := tel.Snapshot().WriteText(&got); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "registry.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("registry snapshots differ from testdata/registry.golden\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
