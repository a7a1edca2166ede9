package mobipriv

import (
	"mobipriv/internal/stream"
)

// StreamMechanism is the online counterpart of Mechanism, holding the
// streaming state of ONE user: Push feeds one observation (in time
// order) and returns the points that became safe to publish; Flush ends
// the trace and drains whatever was withheld. It mirrors the internal
// engine's contract, so values built here drive the sharded streaming
// engine directly.
type StreamMechanism interface {
	Push(p Point) []Point
	Flush() []Point
}

// StreamFactory builds the per-user streaming state; a serving system
// calls it once per user when the user's first update arrives. It must
// be safe for concurrent use.
type StreamFactory func(user string) StreamMechanism

// Streamer is the optional capability a Mechanism has when it can run
// online: Streaming returns the factory producing its per-user
// streaming adapters, or nil when this configuration cannot stream.
// Resolve it with AsStreaming, which sees through the name layer
// FromSpec adds.
type Streamer interface {
	Mechanism
	Streaming() StreamFactory
}

// AsStreaming reports whether the mechanism can run online and returns
// its per-user factory, so specs like "geoi(0.01)" or
// "promesse(epsilon=200)" resolve to their streaming adapters.
func AsStreaming(m Mechanism) (StreamFactory, bool) {
	s, ok := unnamed(m).(Streamer)
	if !ok {
		return nil, false
	}
	f := s.Streaming()
	return f, f != nil
}

// StreamingMechanisms returns the sorted names of registered mechanisms
// whose default spec resolves to a streaming-capable mechanism.
func StreamingMechanisms() []string { return registeredWith(AsStreaming) }

// The built-in streaming factories bridge to the internal adapters. The
// internal stream.Mechanism interface is structurally identical to
// StreamMechanism (Point aliases trace.Point), so the values cross the
// boundary without wrapping.

func streamRaw() StreamFactory {
	c := stream.Passthrough{}
	return func(user string) StreamMechanism { return c.New(user) }
}

func streamPromesse(epsilon, window float64) StreamFactory {
	c := stream.Promesse{Epsilon: epsilon, Window: window}
	return func(user string) StreamMechanism { return c.New(user) }
}

func streamGeoI(epsilon float64, seed int64) StreamFactory {
	// Factory (not New) so a user who is flushed or evicted and comes
	// back gets a fresh noise stream instead of replaying the first one.
	f := stream.GeoI{Epsilon: epsilon, Seed: seed}.Factory()
	return func(user string) StreamMechanism { return f(user) }
}
