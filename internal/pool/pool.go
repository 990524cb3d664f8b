// Package pool provides the shared worker pool that drives every parallel
// stage of the engine: the partition-parallel sort+scan passes of the
// confidence operator (internal/conf), per-answer OBDD and d-tree
// compilation, and Monte Carlo estimation (internal/prob). The relational
// operators below them (internal/engine) stream on the calling goroutine
// and never draw from the pool. One Pool per sprout.Engine caps
// the total goroutine parallelism of all concurrently served queries; every
// stage of every query draws from the same slot budget.
//
// Do never blocks waiting for a slot: the calling goroutine always executes
// tasks itself and only offloads extras to idle slots. Nested Do calls (a
// batch fan-out whose per-query work fans out again) therefore cannot
// deadlock, and a pool of one worker degrades to plain sequential execution
// with zero goroutines spawned.
package pool

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// ParallelMinRows is the input size below which a sort+scan pass of the
// confidence operator stays serial: until that many rows have arrived its
// input is buffered, and only then hash-partitioned by group key across one
// sorter per worker. Fanning a few thousand rows out to workers costs more
// than it saves.
const ParallelMinRows = 2048

// Pool is a fixed-size worker-slot budget shared by concurrent Do calls.
// The zero value is not usable; construct with New. A nil *Pool is treated
// as a fresh single-use pool of GOMAXPROCS workers by Run-style callers that
// normalize it via Get.
type Pool struct {
	// sem holds the spawnable helper slots: a pool of W workers has W-1
	// slots because the goroutine calling Do is the W-th worker.
	sem chan struct{}
}

// New creates a pool of the given total worker count. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 yields a pool that executes everything
// inline on the caller.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Get normalizes an optional pool: it returns p unchanged when non-nil, and
// a fresh pool of the given worker count otherwise.
func Get(p *Pool, workers int) *Pool {
	if p != nil {
		return p
	}
	return New(workers)
}

// Workers returns the pool's total worker count (helper slots + the caller).
func (p *Pool) Workers() int { return cap(p.sem) + 1 }

// Parallel reports whether the pool can run more than one task at a time —
// the gate callers use to choose between the serial and partitioned paths.
func (p *Pool) Parallel() bool { return cap(p.sem) > 0 }

// Do runs task(0..n-1), fanning the indexes out to the caller plus as many
// idle helper slots as are free at call time (at most n-1). It returns after
// every started task has finished.
//
// Tasks are claimed in ascending index order. On the first task error or
// context cancellation no further indexes are claimed; already running tasks
// complete. Do returns the error of the lowest erroring index — tasks below
// it were all claimed earlier and ran to completion, so the choice is
// deterministic — or ctx.Err() when the run was cut short with no task
// error. A nil ctx means no cancellation.
//
// A panicking task is recovered at this boundary and converted into a
// *fault.PanicError for its index: the panic fails its own Do call (and so
// its own query) without unwinding through shared Engine state or leaking
// the helper slot, whose release is already deferred.
func (p *Pool) Do(ctx context.Context, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		next int64 = -1
		stop atomic.Bool
	)
	errs := make([]error, n)
	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &fault.PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return task(i)
	}
	worker := func() {
		for !stop.Load() {
			i := int(atomic.AddInt64(&next, 1))
			if i >= n {
				return
			}
			if ctx != nil && ctx.Err() != nil {
				stop.Store(true)
				return
			}
			if err := run(i); err != nil {
				errs[i] = err
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				worker()
			}()
		default:
			spawned = n // no idle slot: stop trying, run the rest inline
		}
	}
	worker()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
