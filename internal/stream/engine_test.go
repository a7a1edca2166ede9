package stream

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"mobipriv/internal/trace"
)

// collector is a Sink accumulating output, safe for concurrent shards.
type collector struct {
	mu  sync.Mutex
	out []Update
}

func (c *collector) sink(batch []Update) {
	c.mu.Lock()
	c.out = append(c.out, batch...)
	c.mu.Unlock()
}

// byUser groups collected output per user, preserving arrival order
// (which, per user, is the engine's processing order).
func (c *collector) byUser() map[string][]trace.Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]trace.Point)
	for _, u := range c.out {
		out[u.User] = append(out[u.User], u.Point)
	}
	return out
}

// startEngine runs the engine in the background and returns a stop
// function that closes it and waits for Run to return.
func startEngine(t *testing.T, cfg Config, f Factory) (*Engine, func()) {
	t.Helper()
	e, err := NewEngine(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	stop := func() {
		if err := e.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	return e, stop
}

// interleaved builds a time-interleaved stream over several users.
func interleaved(users, pointsPer int) []Update {
	var out []Update
	for i := 0; i < pointsPer; i++ {
		for u := 0; u < users; u++ {
			user := string(rune('a' + u))
			pts := line(pointsPer, 40, 30*time.Second)
			out = append(out, Update{User: user, Point: pts[i]})
		}
	}
	return out
}

func TestEngineReplayDeterministicAcrossShards(t *testing.T) {
	in := interleaved(7, 40)
	run := func(shards int) map[string][]trace.Point {
		var c collector
		e, stop := startEngine(t, Config{Shards: shards, Sink: c.sink},
			func(user string) Mechanism { return Promesse{Epsilon: 100, Window: 300}.New(user) })
		ctx := context.Background()
		for i := 0; i < len(in); i += 16 {
			end := min(i+16, len(in))
			if err := e.Push(ctx, in[i:end]...); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		stop()
		return c.byUser()
	}
	want := run(1)
	if len(want) != 7 {
		t.Fatalf("got %d users, want 7", len(want))
	}
	for _, shards := range []int{2, 4, 16} {
		got := run(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d users, want %d", shards, len(got), len(want))
		}
		for user, wpts := range want {
			gpts := got[user]
			if len(gpts) != len(wpts) {
				t.Fatalf("shards=%d user %s: %d points, want %d", shards, user, len(gpts), len(wpts))
			}
			for i := range wpts {
				if !gpts[i].Point.Equal(wpts[i].Point) || !gpts[i].Time.Equal(wpts[i].Time) {
					t.Fatalf("shards=%d user %s point %d differs", shards, user, i)
				}
			}
		}
	}
}

func TestEngineStatsAndRelabel(t *testing.T) {
	var c collector
	e, stop := startEngine(t, Config{Shards: 3, Sink: c.sink},
		func(user string) Mechanism {
			return Chain(Passthrough{}.New(user), Pseudonymize{Prefix: "p", Seed: 1}.New(user))
		})
	in := interleaved(5, 10)
	if err := e.Push(context.Background(), in...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.In != uint64(len(in)) || st.Out != uint64(len(in)) {
		t.Errorf("stats in=%d out=%d, want %d each", st.In, st.Out, len(in))
	}
	if st.ActiveUsers != 0 {
		t.Errorf("after Flush, ActiveUsers = %d, want 0", st.ActiveUsers)
	}
	if len(st.Shards) != 3 {
		t.Errorf("got %d shard stats, want 3", len(st.Shards))
	}
	for user := range c.byUser() {
		if user[0] != 'p' {
			t.Errorf("output user %q not pseudonymized", user)
		}
	}
	stop()
}

func TestEngineIdleEviction(t *testing.T) {
	var c collector
	e, stop := startEngine(t, Config{Shards: 2, IdleTTL: 30 * time.Millisecond, SweepEvery: 10 * time.Millisecond, Sink: c.sink},
		func(user string) Mechanism { return Promesse{Epsilon: 100, Window: 1e9}.New(user) })
	defer stop()
	// The enormous window withholds everything until flush/eviction.
	pts := line(30, 40, 30*time.Second)
	var in []Update
	for _, p := range pts {
		in = append(in, Update{User: "idler", Point: p})
	}
	if err := e.Push(context.Background(), in...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := e.Stats()
		if st.Evicted == 1 && st.ActiveUsers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle user never evicted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Eviction flushed the withheld points out.
	if got := len(c.byUser()["idler"]); got == 0 {
		t.Error("eviction did not flush withheld points")
	}
}

func TestEngineClosedAndCancelled(t *testing.T) {
	e, stop := startEngine(t, Config{Shards: 1}, func(user string) Mechanism { return Passthrough{}.New(user) })
	stop()
	u := Update{User: "u", Point: line(1, 0, time.Second)[0]}
	if err := e.Push(context.Background(), u); !errors.Is(err, ErrClosed) {
		t.Errorf("Push after Close = %v, want ErrClosed", err)
	}
	if err := e.Flush(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}

	// A full queue with no consumer exerts backpressure: Push blocks
	// until the context is cancelled.
	e2, err := NewEngine(Config{Shards: 1, QueueDepth: 1}, func(user string) Mechanism { return Passthrough{}.New(user) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var pushErr error
	for i := 0; i < 10 && pushErr == nil; i++ {
		pushErr = e2.Push(ctx, u)
	}
	if !errors.Is(pushErr, context.DeadlineExceeded) {
		t.Errorf("backpressured Push = %v, want DeadlineExceeded", pushErr)
	}
}

// TestEngineRunAbortUnblocksPush pins the abort contract: when Run's
// context is cancelled while a Push is blocked on a full shard queue,
// the Push must return (nil or ErrClosed) instead of blocking forever
// holding the engine lock, and Close must not deadlock behind it.
func TestEngineRunAbortUnblocksPush(t *testing.T) {
	release := make(chan struct{})
	e, err := NewEngine(Config{Shards: 1, QueueDepth: 1, Sink: func([]Update) { <-release }},
		func(user string) Mechanism { return Passthrough{}.New(user) })
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(rctx) }()

	u := Update{User: "u", Point: line(1, 0, time.Second)[0]}
	ctx := context.Background()
	if err := e.Push(ctx, u); err != nil { // shard picks it up, blocks in sink
		t.Fatal(err)
	}
	if err := e.Push(ctx, u); err != nil { // fills the queue
		t.Fatal(err)
	}
	pushDone := make(chan error, 1)
	go func() { pushDone <- e.Push(ctx, u) }() // blocks on the full queue

	time.Sleep(20 * time.Millisecond) // let the third Push block
	rcancel()
	close(release)

	select {
	case err := <-pushDone:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("aborted Push = %v, want nil or ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Push still blocked after Run abort")
	}
	closeDone := make(chan struct{})
	go func() { e.Close(); close(closeDone) }()
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked after Run abort")
	}
	if err := <-runDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// TestEngineRunAbortBeatsClose pins that a cancelled Run reports the
// cancellation even when Close has also run: with the sink parked, the
// run is cancelled and the engine closed before the sink returns, so
// the shard then sees both its closed queue and the cancelled context.
// Run must return context.Canceled whichever one the shard picks, on
// one shard as on two.
func TestEngineRunAbortBeatsClose(t *testing.T) {
	for _, shards := range []int{1, 2} {
		parked, release := make(chan struct{}, 1), make(chan struct{})
		e, err := NewEngine(Config{Shards: shards, Sink: func([]Update) {
			parked <- struct{}{}
			<-release
		}}, func(user string) Mechanism { return Passthrough{}.New(user) })
		if err != nil {
			t.Fatal(err)
		}
		rctx, rcancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { runDone <- e.Run(rctx) }()
		u := Update{User: "u", Point: line(1, 0, time.Second)[0]}
		if err := e.Push(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		<-parked
		rcancel()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		close(release)
		if err := <-runDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: Run = %v, want context.Canceled", shards, err)
		}
	}
}

func TestEngineFlushRestartsTraces(t *testing.T) {
	var c collector
	e, stop := startEngine(t, Config{Shards: 1, Sink: c.sink},
		func(user string) Mechanism { return Promesse{Epsilon: 100, Window: 300}.New(user) })
	defer stop()
	ctx := context.Background()
	pts := line(20, 50, 30*time.Second)
	for round := 0; round < 2; round++ {
		for _, p := range pts {
			if err := e.Push(ctx, Update{User: "u", Point: p}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got := c.byUser()["u"]
	// Two identical traces → identical halves, each starting at pts[0].
	if len(got)%2 != 0 {
		t.Fatalf("odd output count %d after two identical rounds", len(got))
	}
	half := len(got) / 2
	starts := 0
	for _, p := range got {
		if p.Point.Equal(pts[0].Point) {
			starts++
		}
	}
	if starts != 2 {
		t.Errorf("found %d trace starts, want 2 (flush must reset per-user state)", starts)
	}
	for i := 0; i < half; i++ {
		if !got[i].Point.Equal(got[half+i].Point) {
			t.Fatalf("replayed round differs at %d", i)
		}
	}
	// Sanity: per-user output from one shard arrives in order.
	if !sort.SliceIsSorted(got[:half], func(i, j int) bool { return got[i].Time.Before(got[j].Time) }) {
		t.Error("first round not time-ordered")
	}
}
