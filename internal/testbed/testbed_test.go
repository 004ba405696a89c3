package testbed

import (
	"fmt"
	"testing"
	"time"

	"rocc/internal/core"
)

// TestConfigCP pins the CP configuration derived from the drain rate: at
// the default 400 Mb/s it is the §6.2 configuration the testbed has
// always run, and Fmax (every client's Rmax) follows the rate, so a
// faster switch is not capped at 400 Mb/s per client.
func TestConfigCP(t *testing.T) {
	want := core.CPConfig{
		DeltaQBytes: 600,
		DeltaFMbps:  1,
		QrefBytes:   75 * 1000,
		QmidBytes:   150 * 1000,
		QmaxBytes:   210 * 1000,
		FminMbps:    1,
		FmaxMbps:    400,
		AlphaTilde:  0.3,
		BetaTilde:   0.5,
		MaxLevel:    64,
	}
	if got := DefaultConfig().CP(); got != want {
		t.Errorf("CP at 400 Mb/s:\n got %+v\nwant %+v", got, want)
	}
	for _, rate := range []float64{2e6, 100e6, 1.5e9, 10e9} {
		got := Config{DrainRate: rate}.CP()
		want.FmaxMbps = rate / 1e6
		if got != want {
			t.Errorf("CP at %v b/s:\n got %+v\nwant %+v", rate, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("CP at %v b/s: %v", rate, err)
		}
	}
}

func TestSwitchLifecycle(t *testing.T) {
	sw, err := NewSwitch(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sw.Addr() == nil || sw.Addr().Port == 0 {
		t.Error("switch has no address")
	}
	if sw.QueueBytes() != 0 {
		t.Error("fresh switch has a queue")
	}
	sw.Close() // must not hang or panic
}

// TestCloseWaitsForSinkLoop is the regression test for the untracked
// sinkLoop goroutine: NewSwitch started four goroutines but registered
// only three in the WaitGroup, so Close could return while sinkLoop was
// still reading the sink socket. With the WaitGroup fix, Close must not
// return until sinkLoop has exited.
func TestCloseWaitsForSinkLoop(t *testing.T) {
	for i := 0; i < 10; i++ {
		sw, err := NewSwitch(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sw.Close()
		if !sw.sinkExited.Load() {
			t.Fatal("Close returned before sinkLoop exited")
		}
	}
}

func TestClientLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	c, err := NewClient(1, sw, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if c.SentBytes.Load() == 0 {
		t.Error("client sent nothing")
	}
	c.Close()
}

func TestDataFlowsThroughSwitch(t *testing.T) {
	cfg := DefaultConfig()
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	c, err := NewClient(1, sw, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for sw.Forwarded.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if sw.Forwarded.Load() == 0 {
		t.Fatal("switch forwarded nothing")
	}
}

func TestClientPacingApproximatesOfferedRate(t *testing.T) {
	cfg := DefaultConfig()
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	const offered = 80e6
	c, err := NewClient(1, sw, offered)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(200 * time.Millisecond)
	start := c.SentBytes.Load()
	time.Sleep(500 * time.Millisecond)
	rate := float64(c.SentBytes.Load()-start) * 8 / 0.5
	if rate < offered*0.7 || rate > offered*1.3 {
		t.Errorf("client paced at %.0f bps, offered %.0f", rate, offered)
	}
}

// TestUniformScenarioConverges is the Fig. 13 integration check on real
// sockets: three full-rate clients must share the switch fairly with the
// queue under control. Real-time and scheduler-dependent, so tolerances
// are loose and the whole test is skipped in -short runs.
func TestUniformScenarioConverges(t *testing.T) {
	cfg := DefaultConfig()
	runRealTime(t, cfg, Uniform, func(res Result) (missed []string) {
		ideal := cfg.DrainRate / 3 / 1e6
		for i, r := range res.ClientRates {
			if r < ideal*0.6 || r > ideal*1.2 {
				missed = append(missed, fmt.Sprintf("client %d at %.1f Mb/s, ideal %.1f", i, r, ideal))
			}
		}
		// Fairness across the three equal clients must be tight even when
		// absolute throughput drifts with scheduling.
		min, max := res.ClientRates[0], res.ClientRates[0]
		for _, r := range res.ClientRates {
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		if (max-min)/max > 0.15 {
			missed = append(missed, fmt.Sprintf("client rates spread too wide: %v", res.ClientRates))
		}
		if res.SteadyQueKB > float64(cfg.CP().QmaxBytes)/1000 {
			missed = append(missed, fmt.Sprintf("queue %.0f KB above Qmax", res.SteadyQueKB))
		}
		if res.CNPs == 0 {
			missed = append(missed, "no CNPs delivered")
		}
		return missed
	})
}

func TestMixedScenarioProtectsInnocents(t *testing.T) {
	cfg := DefaultConfig()
	runRealTime(t, cfg, Mixed, func(res Result) (missed []string) {
		// Client 3 offers 10% of the drain rate: far below fair share, it
		// must get (nearly) everything it asks for.
		innocent := res.ClientRates[2]
		offered := 0.1 * cfg.DrainRate / 1e6
		if innocent < offered*0.8 {
			missed = append(missed, fmt.Sprintf("innocent flow got %.1f of %.1f Mb/s", innocent, offered))
		}
		// Client 1 (greedy) must get more than the lower offers but not
		// starve them.
		if res.ClientRates[0] < res.ClientRates[2] {
			missed = append(missed, fmt.Sprintf("greedy flow below innocent flow: %v", res.ClientRates))
		}
		return missed
	})
}

// runRealTime runs a 3 s scenario over real UDP loopback and applies
// check to its result. The run measures goroutine scheduling on whatever
// else the host is doing, so it gets up to three attempts and fails only
// if all three miss the tolerances. Every attempt's rates are logged, so
// a real regression stays visible.
func runRealTime(t *testing.T, cfg Config, scenario Scenario, check func(Result) []string) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("real-time testbed run (skipped under -short and -race)")
	}
	const attempts = 3
	for i := 1; i <= attempts; i++ {
		res, err := Run(cfg, scenario, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		missed := check(res)
		t.Logf("attempt %d: client rates %.1f Mb/s, queue %.0f KB, %d CNPs, missed %q",
			i, res.ClientRates, res.SteadyQueKB, res.CNPs, missed)
		if len(missed) == 0 {
			return
		}
	}
	t.Fatalf("all %d attempts missed the tolerances", attempts)
}

// TestCleanShutdownNoReadErrors: a fault-free run followed by an orderly
// Close must record zero transient read errors — the deadline-polling
// loops exit on the done channel, never by observing a closed socket.
func TestCleanShutdownNoReadErrors(t *testing.T) {
	cfg := DefaultConfig()
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(1, sw, 50e6)
	if err != nil {
		sw.Close()
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	c.Close()
	sw.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("shutdown took %v, deadline polls should notice done within ~%v", d, readPoll)
	}
	if n := sw.ReadErrors.Load(); n != 0 {
		t.Errorf("switch survived %d read errors during a clean run", n)
	}
	if n := c.ReadErrors.Load(); n != 0 {
		t.Errorf("client survived %d read errors during a clean run", n)
	}
}

// TestScenarioRun runs one short uniform scenario end to end; CI runs it
// under the race detector, where a hang dumps every goroutine at the
// test timeout.
func TestScenarioRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time testbed run")
	}
	res, err := Run(DefaultConfig(), Uniform, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.CNPs == 0 {
		t.Error("no CNPs observed in a congested uniform run")
	}
}
