package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-1500, "-1.500us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Errorf("FromSeconds(0.25) = %v, want 250ms", got)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := New()
	var at Time
	e.At(42, func() { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Errorf("Now() inside event = %v, want 42", at)
	}
	if e.Now() != 42 {
		t.Errorf("Now() after run = %v, want 42", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	ev.Cancel() // double cancel is a no-op
}

func TestCancelDuringRun(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(20, func() { fired = true })
	e.At(10, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Error("event cancelled by earlier event still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=20, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v, want 20", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Errorf("fired %d events total, want 3", len(fired))
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	e.At(10, func() { count++; e.Stop() })
	e.At(20, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("ran %d events after Stop, want 1", count)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

// TestRunUntilStoppedKeepsClock: a RunUntil cut short by Stop must leave
// the clock at the last event fired, not at its end time — otherwise a
// resumed Run moves the clock backwards and scheduling between the two
// panics as "in the past".
func TestRunUntilStoppedKeepsClock(t *testing.T) {
	e := New()
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	e.At(10, func() { note(); e.Stop() })
	e.At(20, note)
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after Stop at 10 inside RunUntil(100), want 10", e.Now())
	}
	e.At(15, note) // legal: 15 is not in the past
	e.Run()
	if want := []Time{10, 15, 20}; !reflect.DeepEqual(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %v after an uninterrupted RunUntil(100), want 100", e.Now())
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := New()
	fired := false
	e.At(10, func() {
		e.After(-5, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Error("After with negative delay never fired")
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var times []Time
	tk := e.NewTicker(10, func() { times = append(times, e.Now()) })
	e.RunUntil(35)
	tk.Stop()
	e.RunUntil(100)
	if len(times) != 3 {
		t.Fatalf("ticker fired %d times, want 3 (at 10,20,30)", len(times))
	}
	for i, want := range []Time{10, 20, 30} {
		if times[i] != want {
			t.Errorf("tick %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.RunUntil(100)
	if count != 2 {
		t.Errorf("ticker fired %d times, want 2", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	New().NewTicker(0, func() {})
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.fired != 5 {
		t.Errorf("Fired = %d, want 5", e.fired)
	}
}

// Property: for any set of scheduled times, execution order is the sorted
// order of times.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset leaves exactly the others to fire.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(raw []uint16, mask uint64) bool {
		e := New()
		fired := 0
		var events []Handle
		for _, r := range raw {
			events = append(events, e.At(Time(r), func() { fired++ }))
		}
		cancelled := 0
		for i, ev := range events {
			if mask&(1<<(uint(i)%64)) != 0 {
				ev.Cancel()
				cancelled++
			}
		}
		e.Run()
		return fired == len(raw)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- event-slot recycling (the zero-allocation hot path) ---

// slots counts the event structs the engine holds between events: the
// pending ones and the free list. Since a slot is always one or the
// other, this is every slot the engine ever allocated.
func (e *Engine) slots() int {
	n := e.q.n
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// TestEventSlotsReused pins the pooling contract: a long run whose
// pending set stays small allocates only a handful of event slots.
func TestEventSlotsReused(t *testing.T) {
	e := New()
	count := 0
	var loop func()
	loop = func() {
		count++
		if count < 10000 {
			e.After(10, loop)
		}
	}
	e.After(10, loop)
	e.Run()
	if count != 10000 {
		t.Fatalf("fired %d events, want 10000", count)
	}
	// A slot dropped instead of recycled is neither pending nor free, so
	// a leak in the fire path reads as zero slots.
	if n := e.slots(); n < 1 || n > 4 {
		t.Errorf("%d event slots held for a 1-pending workload, want 1..4", n)
	}
}

// TestStaleHandleCancelIsInert is the generation-counter guarantee: a
// Handle kept across its event's firing must not cancel the unrelated
// event that later reuses the slot.
func TestStaleHandleCancelIsInert(t *testing.T) {
	e := New()
	h1 := e.At(10, func() {})
	e.Run()
	if !h1.Cancelled() {
		t.Fatal("fired event's handle not Cancelled")
	}
	fired := false
	h2 := e.At(20, func() { fired = true }) // reuses h1's slot
	h1.Cancel()                             // stale: must be a no-op
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	if h2.Cancelled() != true { // fired by now
		t.Fatal("fired handle should report Cancelled")
	}
}

// TestZeroHandle: the zero Handle behaves like an already-cancelled event.
func TestZeroHandle(t *testing.T) {
	var h Handle
	if !h.Cancelled() {
		t.Error("zero Handle not Cancelled")
	}
	h.Cancel() // must not panic
	if h.At() != 0 {
		t.Error("zero Handle At != 0")
	}
}

// TestCancelRecyclesSlot: a cancelled event's slot is immediately
// reusable and the cancelling handle stays inert afterwards.
func TestCancelRecyclesSlot(t *testing.T) {
	e := New()
	h := e.At(10, func() { t.Fatal("cancelled event fired") })
	h.Cancel()
	if n := e.slots(); n != 1 {
		t.Fatalf("%d slots held after cancel, want 1 (the cancelled slot, free)", n)
	}
	fired := false
	h2 := e.At(5, func() { fired = true })
	if h2.ev != h.ev {
		t.Error("At did not reuse the cancelled slot")
	}
	h.Cancel() // stale again, after the slot was reused
	e.Run()
	if !fired {
		t.Fatal("event scheduled into recycled slot did not fire")
	}
	if n := e.slots(); n != 1 {
		t.Errorf("%d slots held, want 1 (cancel must recycle)", n)
	}
}

// TestAtCallZeroAlloc holds the hot path's core promise: scheduling and
// firing pooled callback events allocates nothing in steady state.
func TestAtCallZeroAlloc(t *testing.T) {
	e := New()
	cb := Callback(func(a, b any) {})
	// Warm the pool.
	e.AfterCall(1, cb, e, nil)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterCall(1, cb, e, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("AfterCall+Step allocated %.1f per op, want 0", allocs)
	}
}

// TestTickerSteadyStateAllocs: a running ticker must not allocate per
// tick (the rescheduling closure is built once).
func TestTickerSteadyStateAllocs(t *testing.T) {
	e := New()
	tk := e.NewTicker(10, func() {})
	e.RunUntil(100) // warm up
	allocs := testing.AllocsPerRun(500, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("ticker allocated %.1f per tick, want 0", allocs)
	}
	tk.Stop()
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(7)
	b := NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandSplitIndependence(t *testing.T) {
	a := NewRand(7)
	s1 := a.Split()
	// Drawing from s1 must not change a's stream relative to a fresh
	// split at the same point of a's sequence.
	b := NewRand(7)
	_ = b.Split()
	s1.Float64()
	s1.Intn(10)
	if a.Float64() != b.Float64() {
		t.Error("child draws perturbed the parent stream")
	}
}

func TestExpTimeMean(t *testing.T) {
	r := NewRand(1)
	var sum Time
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.ExpTime(Millisecond)
	}
	mean := float64(sum) / float64(n)
	if mean < 0.95e6 || mean > 1.05e6 {
		t.Errorf("ExpTime mean = %.0f ns, want ~1e6", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(rand.Int63())
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}
