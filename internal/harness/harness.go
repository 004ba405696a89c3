// Package harness fans independent experiment cells out across a
// bounded worker pool. The paper's evaluation reports every figure as
// an average over repeated runs; each (experiment × protocol ×
// repetition) cell owns a private sim.Engine and seed, so cells are
// embarrassingly parallel. Run provides what every sweep shares:
//
//   - bounded workers (at most GOMAXPROCS by default, never more than
//     there are cells),
//   - deterministic ordered merge: results are slotted by cell index,
//     never by completion order, so a parallel sweep is byte-identical
//     to a serial one,
//   - per-cell panic capture: a crashed cell becomes a reported error on
//     its own Result instead of killing the whole sweep.
//
// With one worker the cells run sequentially in index order.
package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Result is the outcome of one cell.
type Result[R any] struct {
	Value R     // fn's return value; zero when Err != nil
	Err   error // non-nil if the cell panicked
}

// Run calls fn on every cell across the worker pool and returns the
// results in cell order. workers <= 0 selects runtime.GOMAXPROCS(0). A
// cell that panics is recovered into its Result's Err; the remaining
// cells still run.
func Run[C, R any](cells []C, workers int, fn func(C) R) []Result[R] {
	results := make([]Result[R], len(cells))
	if len(cells) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runCell(i, cells[i], fn)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// runCell invokes fn with panic capture.
func runCell[C, R any](i int, cell C, fn func(C) R) (res Result[R]) {
	defer func() {
		if r := recover(); r != nil {
			res = Result[R]{Err: fmt.Errorf("harness: cell %d panicked: %v\n%s", i, r, debug.Stack())}
		}
	}()
	return Result[R]{Value: fn(cell)}
}
