package mobipriv

import (
	"mobipriv/internal/stream"
)

// StreamMechanism is the online counterpart of Mechanism, holding the
// streaming state of ONE user: Push feeds one observation (in time
// order) and returns the points that became safe to publish; Flush ends
// the trace and drains whatever was withheld. It is the internal
// engine's own interface, so values built here drive the sharded
// streaming engine directly.
type StreamMechanism = stream.Mechanism

// StreamFactory builds the per-user streaming state; a serving system
// calls it once per user when the user's first update arrives. It must
// be safe for concurrent use.
type StreamFactory = stream.Factory

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
