package harness

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ints returns the cells 0..n-1.
func ints(n int) []int {
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	return cells
}

func TestRunSlotsResultsByIndex(t *testing.T) {
	// Later cells finish first (descending sleep), yet results must come
	// back in cell order.
	n := 8
	rs := Run(ints(n), 4, func(i int) int {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return i * i
	})
	if len(rs) != n {
		t.Fatalf("results = %d, want %d", len(rs), n)
	}
	for i, r := range rs {
		if r.Value != i*i || r.Err != nil {
			t.Errorf("cell %d: %+v", i, r)
		}
	}
}

func TestRunSingleWorkerIsSequential(t *testing.T) {
	var order []int
	Run(ints(5), 1, func(i int) int {
		order = append(order, i) // safe: one worker, no concurrency
		return 0
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want ascending", order)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var active, peak atomic.Int64
	Run(ints(16), 3, func(int) int {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		active.Add(-1)
		return 0
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d, want <= 3", p)
	}
}

func TestRunCapturesPanics(t *testing.T) {
	rs := Run(ints(5), 2, func(i int) int {
		if i == 3 {
			panic("boom")
		}
		return i
	})
	for i, r := range rs {
		if i == 3 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "cell 3 panicked: boom") {
				t.Errorf("cell 3 error = %v", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("cell %d affected by sibling panic: %+v", i, r)
		}
	}
}

func TestRunZeroCells(t *testing.T) {
	rs := Run(nil, 0, func(i int) int { return 0 })
	if len(rs) != 0 {
		t.Errorf("results = %v", rs)
	}
}
