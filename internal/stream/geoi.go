package stream

import (
	"fmt"
	"sync"

	"mobipriv/internal/baseline/geoind"
	"mobipriv/internal/trace"
)

// GeoI configures the streaming geo-indistinguishability adapter and
// acts as the factory for its per-user state. Planar Laplace noise is
// memoryless per observation, so streaming is the mechanism's natural
// habitat: each pushed point is perturbed and published immediately,
// with zero latency and O(1) per-user state.
//
// The per-user noise stream is derived from (Seed, user) exactly as the
// batch baseline derives per-trace RNGs, so replaying a recorded
// dataset through the streaming engine yields output byte-identical to
// geoind.PerturbDataset for the same seed.
type GeoI struct {
	// Epsilon is the privacy parameter in 1/meters. Must be positive.
	Epsilon float64
	// Seed makes the noise reproducible.
	Seed int64
}

// Factory returns a concurrency-safe factory giving each lifetime
// ("incarnation") of a user an independent noise stream. The first
// lifetime derives exactly the batch stream, so single-pass replay of a
// recorded dataset stays byte-identical to the batch baseline; state
// re-created after a flush or idle eviction advances to a fresh stream,
// because replaying session 1's draws against session 2's positions
// would let an observer difference the sessions and cancel the noise
// entirely.
//
// Memory stays bounded: per-user lifetime counters are tracked for up
// to maxTrackedUsers; beyond that, every new user's lifetimes draw from
// a globally unique counter instead. That never reuses a noise stream
// (the privacy property), it only forgoes batch-replay determinism for
// the users past the cap — recorded-dataset replays fit well within it.
// Counters are per-process; operators wanting cross-restart freshness
// vary Seed per deployment.
func (c GeoI) Factory() Factory {
	const maxTrackedUsers = 1 << 20
	var (
		mu          sync.Mutex
		incarnation = make(map[string]uint64)
		overflow    uint64
	)
	return func(user string) Mechanism {
		mu.Lock()
		n, seen := incarnation[user]
		switch {
		case seen:
			incarnation[user] = n + 1
		case len(incarnation) < maxTrackedUsers:
			incarnation[user] = 1 // n = 0: the batch-identical stream
		default:
			overflow++
			n = maxTrackedUsers + overflow // unique, never 0, never reused
		}
		mu.Unlock()
		return c.newIncarnation(user, n)
	}
}

// newIncarnation returns the state for a user's n-th lifetime; n = 0
// is the batch-identical stream. It panics on an invalid Epsilon
// (registration-time misconfiguration, like Register).
func (c GeoI) newIncarnation(user string, n uint64) Mechanism {
	derived := user
	if n > 0 {
		// NUL-separated so no real user label can collide with it.
		derived = fmt.Sprintf("%s\x00incarnation\x00%d", user, n)
	}
	m, err := geoind.NewForUser(geoind.Config{Epsilon: c.Epsilon, Seed: c.Seed}, derived)
	if err != nil {
		panic(fmt.Sprintf("stream: GeoI: %v", err))
	}
	return geoiState{m: m}
}

type geoiState struct {
	m *geoind.Mechanism
}

func (st geoiState) Push(p trace.Point) []trace.Point {
	return []trace.Point{st.m.PerturbPoint(p)}
}

func (st geoiState) Flush() []trace.Point { return nil }
