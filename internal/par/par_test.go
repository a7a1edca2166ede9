package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	if w := Workers(context.Background()); w != 1 {
		t.Fatalf("Workers(plain ctx) = %d, want 1", w)
	}
	if w := Workers(WithWorkers(context.Background(), 7)); w != 7 {
		t.Fatalf("Workers = %d, want 7", w)
	}
	if w := Workers(WithWorkers(context.Background(), 0)); w < 1 {
		t.Fatalf("Workers(WithWorkers 0) = %d, want >= 1 (per-CPU)", w)
	}
}

func TestMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		ctx := WithWorkers(context.Background(), workers)
		const n = 100
		hit := make([]int32, n)
		if err := Map(ctx, n, func(i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		ctx := WithWorkers(context.Background(), workers)
		err := Map(ctx, 50, func(i int) error {
			if i == 25 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestMapHonorsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(WithWorkers(context.Background(), workers))
		cancel()
		err := Map(ctx, 10, func(i int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(context.Background(), 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestMapCancelDuringLastItem pins that the serial and the parallel
// path agree when ctx is cancelled while the last fn call runs: both
// report the cancellation, whether that call then succeeds or fails.
func TestMapCancelDuringLastItem(t *testing.T) {
	const n = 4
	for _, fnErr := range []error{nil, errors.New("boom")} {
		for _, workers := range []int{1, 2} {
			ctx, cancel := context.WithCancel(WithWorkers(context.Background(), workers))
			err := Map(ctx, n, func(i int) error {
				if i == n-1 {
					cancel()
					return fnErr
				}
				return nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d, fn error %v: err = %v, want context.Canceled", workers, fnErr, err)
			}
		}
	}
}
