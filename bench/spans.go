package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans recorded by the benchmark's own code around its calls into
// each layer. The replays that record them are serial, so the recorder
// needs no locking; spans stay in memory until the run ends.

// span is one timed call into a layer. Spans of one request (or one
// store scan) share Trace; Parent is the Span that caused this one, 0
// for a root. Times are nanoseconds since the recorder was created.
type span struct {
	Trace  int64  `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Points int64  `json:"points"`
}

// recorder collects spans. A nil *recorder records nothing and reads
// no clock, which is how the same replay code runs untraced.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(trace, parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		Trace: trace, Span: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.t0)),
	})
	return id
}

// end closes the span and notes how many points the call handled.
func (r *recorder) end(id int64, points int) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	s.Points = int64(points)
}

// layerTotal is a layer's share of a traced replay.
type layerTotal struct {
	selfNs int64 // duration minus the part child spans cover
	points int64
}

// perPoint is the layer's self time per point it handled.
func (t layerTotal) perPoint() float64 {
	if t.points == 0 {
		return 0
	}
	return float64(t.selfNs) / float64(t.points)
}

// selfTimes sums, per span name, self time and points. The replays are
// serial, so a span's children never overlap and self time is simply
// its duration minus theirs.
func (r *recorder) selfTimes() map[string]layerTotal {
	children := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := make(map[string]layerTotal)
	for _, s := range r.spans {
		t := out[s.Name]
		t.selfNs += s.End - s.Start - children[s.Span]
		t.points += s.Points
		out[s.Name] = t
	}
	return out
}

// write stores the spans as a JSON array at path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
