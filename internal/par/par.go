// Package par provides the small parallel-execution substrate shared by
// the anonymization mechanisms: a context-carried worker count and a
// deterministic index-parallel map.
//
// Parallelism is a property of the runtime, not of any one mechanism.
// The public Runner (mobipriv.NewRunner with mobipriv.WithWorkers)
// stores the worker budget in the context; mechanisms and stages that
// contain embarrassingly parallel per-trace work fan it out with Map.
// Because every item writes only to its own index, the output of a
// parallel run is byte-identical to the serial run.
//
// The invariant every caller relies on: Map never makes determinism
// the worker count's problem. Work items must be independent (their
// only shared state the indexed output slots), and any randomness must
// be derived per item (the mechanisms derive RNGs from (seed, user)),
// so the same inputs produce the same outputs at any worker count.
// This is what lets the store scanner (internal/store), the streaming
// engine (internal/stream) and the store-native Runner path all share
// one substrate.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

type workersKey struct{}

// WithWorkers returns a context carrying a worker budget of n. A value
// of n <= 0 means "one worker per CPU".
func WithWorkers(ctx context.Context, n int) context.Context {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// Workers reports the worker budget carried by the context; a context
// without one yields 1 (serial), so all existing call paths stay
// single-threaded unless a Runner opted in.
func Workers(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok && n > 0 {
		return n
	}
	return 1
}

// PeakAdd atomically increments current and folds the new value into
// the peak high-water mark — the lock-free gauge behind the
// "peak buffered users" / "peak in flight" stats of the store scanner
// and the store-native Runner path. Decrement with a plain
// atomic.AddInt64(current, -1).
func PeakAdd(current, peak *int64) {
	v := atomic.AddInt64(current, 1)
	for {
		p := atomic.LoadInt64(peak)
		if v <= p || atomic.CompareAndSwapInt64(peak, p, v) {
			return
		}
	}
}

// Map runs fn(0) .. fn(n-1) using the context's worker budget and
// returns the first error encountered (cancelling the remaining work).
// fn must be safe to call concurrently and should write its result into
// a caller-owned slot at its index; Map itself imposes no ordering, the
// indexed slots do. Once ctx is cancelled Map returns ctx.Err(), on the
// serial path as on the parallel one, even when every fn call that ran
// returned nil.
func Map(ctx context.Context, n int, fn func(i int) error) error {
	workers := Workers(ctx)
	if workers > n {
		workers = n
	}
	var err error
	if workers <= 1 {
		for i := 0; i < n && err == nil; i++ {
			if err = ctx.Err(); err == nil {
				err = fn(i)
			}
		}
	} else {
		err = mapParallel(ctx, n, workers, fn)
	}
	// Prefer the outer context's error so cancellation surfaces as
	// context.Canceled rather than a wrapped worker error, or as nil
	// from work that finished after the cancel.
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// mapParallel is Map's pooled path: workers goroutines claim indices
// from a shared counter until n is reached or the first error.
func mapParallel(ctx context.Context, n, workers int, fn func(i int) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
