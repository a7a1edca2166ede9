// Package trace is the request-tracing layer of the observability
// substrate: dependency-free spans in the spirit of internal/obs,
// importable from every hot layer without pulling in an external
// tracing stack.
//
// Identity and sampling are deterministic by construction. TraceID and
// SpanID values derive from the splitmix64 finalizer (internal/rng) —
// the same mixing primitive the per-(seed, user) mechanism RNGs use —
// and the head-sampling decision is a pure function of the trace ID
// and the tracer's seed: Mix(id.Lo ^ salt) < threshold. A client that
// derives its trace IDs from a seed (cmd/mobiload does, propagating
// them as W3C traceparent headers) therefore samples the identical
// subset of requests on every replay, and every span ID inside a
// sampled trace is derived from (trace, parent, kind, sequence), so a
// deterministic replay produces byte-identical span IDs.
//
// Cost follows the registry's pay-only-when-registered contract: an
// unsampled request performs one splitmix64 mix and one compare, then
// carries a nil *Span through the layers — every Span method is
// nil-safe and returns immediately. Sampled spans buffer their
// completed children on the root and publish once the root has ended
// AND every child has ended (a child holds a reference on the root, so
// a shard goroutine can finish a batch span after the HTTP handler that
// started the root has already returned).
//
// Completed root spans land in a lock-free bounded ring buffer — the
// flight recorder: the most recent N requests are always inspectable
// (GET /debug/traces in mobiserve) with zero steady-state allocation
// beyond the spans themselves. A latency-bucketed exemplar index
// alongside it retains the slowest root span per power-of-two duration
// bucket, so "what did a 300ms request spend its time on" stays
// answerable even after the ring has wrapped past it. Per-kind
// duration summaries aggregate every published span by kind.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobipriv/internal/rng"
)

// TraceID identifies one trace: 128 bits to fill the W3C traceparent
// field, with the low 64 bits (Lo) carrying the identity that sampling
// and span-ID derivation key on.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports the invalid all-zero trace ID.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the 32-digit lowercase hex form used in traceparent.
func (id TraceID) String() string {
	var b [32]byte
	putHex(b[:16], id.Hi)
	putHex(b[16:], id.Lo)
	return string(b[:])
}

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the 16-digit lowercase hex form used in traceparent.
func (id SpanID) String() string {
	var b [16]byte
	putHex(b[:], uint64(id))
	return string(b[:])
}

func putHex(dst []byte, v uint64) {
	const hex = "0123456789abcdef"
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hex[v&0xf]
		v >>= 4
	}
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int is shorthand for an integer-valued Attr.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: itoa(v)} }

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [21]byte
	i := len(b)
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Key hashes a string into the uint64 domain DeriveID mixes over
// (FNV-1a, the same base hash the placement contract in internal/rng
// feeds through its splitmix64 finalizer to pick shards and nodes).
func Key(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// DeriveID derives a trace ID from a seed and a sequence of parts by
// folding each part through the splitmix64 finalizer. The derivation
// is a pure function: the same (seed, parts) always name the same
// trace, which is what lets a replaying client re-send the identical
// trace IDs (and therefore hit the identical sampling decisions).
func DeriveID(seed uint64, parts ...uint64) TraceID {
	// The fold must not commute between accumulator and part —
	// multiplying the accumulator by the (odd, hence invertible) gamma
	// before adding the mixed part keeps (seed, a, b) and permutations
	// of it distinct.
	h := rng.Mix(seed + rng.Gamma)
	for _, p := range parts {
		h = rng.Mix(h*rng.Gamma + rng.Mix(p+rng.Gamma))
	}
	id := TraceID{Hi: rng.Mix(h + rng.Gamma), Lo: h}
	if id.IsZero() {
		id.Lo = 1
	}
	return id
}

// DeriveSpanID derives the span ID for (trace, parent, kind, seq).
// Exported so a client emitting a traceparent header can name its own
// root span with the same derivation the server uses.
func DeriveSpanID(id TraceID, parent SpanID, kind string, seq uint64) SpanID {
	s := SpanID(rng.Mix(rng.Mix(id.Lo^uint64(parent)*rng.Gamma) + Key(kind) + seq*rng.Gamma))
	if s == 0 {
		s = 1
	}
	return s
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleRate is the fraction of traces recorded, in [0, 1]. The
	// decision is deterministic per trace ID (see Tracer.Sampled), so
	// rate 0 still costs one mix+compare per request and nothing more.
	SampleRate float64
	// Seed salts the sampling decision and the IDs of locally
	// originated traces. Fixed seed + fixed traffic = fixed sample.
	Seed uint64
	// RingSize bounds the flight recorder (completed root spans
	// retained); 0 means 256.
	RingSize int
	// SlowThreshold, when positive, invokes SlowFunc for every
	// published root span whose duration meets or exceeds it — the
	// hook behind mobiserve's -trace-slow flag.
	SlowThreshold time.Duration
	// SlowFunc receives slow root spans; nil disables the hook. It is
	// called synchronously from whichever goroutine publishes the root
	// (ends the last open span), so it must be quick and concurrency-safe.
	SlowFunc func(*RootSpan)
}

// Tracer samples traces, collects their spans and retains the
// completed roots in the flight recorder. Safe for concurrent use; a
// nil *Tracer is valid and records nothing.
type Tracer struct {
	threshold uint64
	always    bool
	salt      uint64
	seed      uint64
	slow      time.Duration
	slowFn    func(*RootSpan)

	ctr       atomic.Uint64 // locally originated trace IDs
	published atomic.Uint64

	ring  ring
	exem  exemplars
	mu    sync.Mutex
	kinds map[string]*kindAgg
}

// New returns a Tracer for the config.
func New(cfg Config) *Tracer {
	n := cfg.RingSize
	if n <= 0 {
		n = 256
	}
	t := &Tracer{
		salt:   rng.Mix(cfg.Seed ^ rng.Gamma),
		seed:   cfg.Seed,
		slow:   cfg.SlowThreshold,
		slowFn: cfg.SlowFunc,
		kinds:  make(map[string]*kindAgg),
	}
	t.ring.slots = make([]atomic.Pointer[RootSpan], n)
	switch {
	case cfg.SampleRate >= 1:
		t.always = true
	case cfg.SampleRate > 0:
		t.threshold = uint64(cfg.SampleRate * float64(^uint64(0)))
	}
	return t
}

// SampleRate reports the configured sampling rate.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	if t.always {
		return 1
	}
	return float64(t.threshold) / float64(^uint64(0))
}

// Sampled reports the head-sampling decision for a trace ID: a pure
// function of (id.Lo, seed), so identical traffic replayed against the
// same seed samples the identical requests.
func (t *Tracer) Sampled(id TraceID) bool {
	if t == nil {
		return false
	}
	if t.always {
		return true
	}
	return rng.Mix(id.Lo^t.salt) < t.threshold
}

// NewTraceID mints a locally originated trace ID from the tracer's
// seed and an internal counter.
func (t *Tracer) NewTraceID() TraceID {
	return DeriveID(t.seed, t.ctr.Add(1))
}

// DeriveID derives a trace ID from this tracer's seed and the parts —
// the keyed form servers use for spans not tied to a request (a
// per-user risk update, a per-trace store run).
func (t *Tracer) DeriveID(parts ...uint64) TraceID {
	if t == nil {
		return TraceID{}
	}
	return DeriveID(t.seed, parts...)
}

// Root starts a root span. A zero id mints a local one; a remote id
// (from traceparent) keys the sampling decision so replays sample
// identically, and parent records the remote caller's span. Returns
// nil — at the cost of one mix and one compare — when the trace is not
// sampled; every Span method tolerates the nil.
func (t *Tracer) Root(name string, id TraceID, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	if id.IsZero() {
		id = t.NewTraceID()
	}
	if !t.Sampled(id) {
		return nil
	}
	s := &Span{
		tracer: t,
		trace:  id,
		id:     DeriveSpanID(id, parent, name, 0),
		parent: parent,
		kind:   name,
		start:  time.Now(),
	}
	s.root = s
	s.refs.Store(1)
	return s
}

// RootAt is Root with an explicit start time (tests, replayed clocks).
func (t *Tracer) RootAt(name string, id TraceID, parent SpanID, start time.Time) *Span {
	s := t.Root(name, id, parent)
	if s != nil {
		s.start = start
	}
	return s
}

// Published reports how many root spans have been recorded.
func (t *Tracer) Published() uint64 {
	if t == nil {
		return 0
	}
	return t.published.Load()
}

// SpanData is one completed span as retained by the recorder.
type SpanData struct {
	ID       SpanID
	Parent   SpanID
	Kind     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// RootSpan is one completed trace: the root plus every child span,
// sorted by start time (ties by span ID).
type RootSpan struct {
	Trace TraceID
	Name  string
	Root  SpanData
	Spans []SpanData
}

// Span is one live span. The zero of usefulness is nil: all methods
// are nil-safe no-ops, which is how the unsampled path stays free.
type Span struct {
	tracer *Tracer
	root   *Span
	trace  TraceID
	id     SpanID
	parent SpanID
	kind   string
	start  time.Time
	attrs  []Attr

	childSeq atomic.Uint64

	// Root-only publication state.
	refs  atomic.Int32 // open handles: self + undone children
	data  SpanData     // the root's own completed record, set by End
	mu    sync.Mutex
	done  []SpanData
	ended atomic.Bool
}

// TraceID returns the span's trace ID (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's ID (zero for nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr annotates the span. Must be called by the span's owning
// goroutine before End.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Child starts a child span. The span ID derives from (trace, parent,
// kind, per-parent sequence), so a replay that creates children in the
// same order produces identical IDs. The child holds a reference on
// the root: the trace publishes only after every child has ended, even
// when that happens after the root itself ended (a shard goroutine
// finishing a batch after the HTTP handler returned).
func (s *Span) Child(kind string) *Span {
	if s == nil {
		return nil
	}
	root := s.root
	root.refs.Add(1)
	return &Span{
		tracer: s.tracer,
		root:   root,
		trace:  s.trace,
		id:     DeriveSpanID(s.trace, s.id, kind, s.childSeq.Add(1)),
		parent: s.id,
		kind:   kind,
		start:  time.Now(),
	}
}

// Record appends an already-completed child span in one call — the
// form the engine uses for intervals it measured itself (queue wait,
// shard processing). Safe to call from the goroutine that owns s.
func (s *Span) Record(kind string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	data := SpanData{
		ID:       DeriveSpanID(s.trace, s.id, kind, s.childSeq.Add(1)),
		Parent:   s.id,
		Kind:     kind,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}
	root := s.root
	root.mu.Lock()
	root.done = append(root.done, data)
	root.mu.Unlock()
}

// End completes the span with the current time.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt completes the span at an explicit end time. The duration is
// end.Sub(start) — monotonic when both stamps came from time.Now().
// Ending a span twice is a no-op for roots and must be avoided for
// children.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	d := end.Sub(s.start)
	if d < 0 {
		d = 0
	}
	data := SpanData{
		ID:       s.id,
		Parent:   s.parent,
		Kind:     s.kind,
		Start:    s.start,
		Duration: d,
		Attrs:    s.attrs,
	}
	root := s.root
	if s == root {
		if !root.ended.CompareAndSwap(false, true) {
			return
		}
		root.data = data
	} else {
		root.mu.Lock()
		root.done = append(root.done, data)
		root.mu.Unlock()
	}
	root.release()
}

// release drops one root reference; the last one out publishes.
func (s *Span) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	if !s.ended.Load() {
		// Every handle released but the root never ended: drop the
		// trace rather than publish a root with zero duration.
		return
	}
	s.mu.Lock()
	spans := s.done
	s.done = nil
	s.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
	rs := &RootSpan{Trace: s.trace, Name: s.kind, Root: s.data, Spans: spans}
	s.tracer.publish(rs)
}

func (t *Tracer) publish(rs *RootSpan) {
	t.published.Add(1)
	t.ring.put(rs)
	t.exem.offer(rs)
	t.mu.Lock()
	t.noteKind(rs.Root.Kind, rs.Root.Duration)
	for i := range rs.Spans {
		t.noteKind(rs.Spans[i].Kind, rs.Spans[i].Duration)
	}
	t.mu.Unlock()
	if t.slow > 0 && t.slowFn != nil && rs.Root.Duration >= t.slow {
		t.slowFn(rs)
	}
}

// noteKind folds one span duration into the per-kind summary; caller
// holds t.mu.
func (t *Tracer) noteKind(kind string, d time.Duration) {
	agg := t.kinds[kind]
	if agg == nil {
		agg = &kindAgg{}
		t.kinds[kind] = agg
	}
	agg.count++
	agg.totalNs += uint64(d)
	if d > agg.max {
		agg.max = d
	}
}

type kindAgg struct {
	count   uint64
	totalNs uint64
	max     time.Duration
}

// KindSummary aggregates every published span of one kind.
type KindSummary struct {
	Kind  string
	Count uint64
	Total time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// Kinds returns the per-kind duration summaries, sorted by kind.
func (t *Tracer) Kinds() []KindSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]KindSummary, 0, len(t.kinds))
	for kind, agg := range t.kinds {
		ks := KindSummary{
			Kind:  kind,
			Count: agg.count,
			Total: time.Duration(agg.totalNs),
			Max:   agg.max,
		}
		if agg.count > 0 {
			ks.Mean = time.Duration(agg.totalNs / agg.count)
		}
		out = append(out, ks)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// ring is the flight recorder: a lock-free bounded buffer of the most
// recently published root spans. Writers claim a slot with one atomic
// add and store a pointer; readers load pointers. Under wraparound a
// snapshot is best-effort (a slot may already hold a newer trace), but
// it never blocks a writer and never tears a span.
type ring struct {
	slots []atomic.Pointer[RootSpan]
	next  atomic.Uint64
}

func (r *ring) put(rs *RootSpan) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(rs)
}

// snapshot returns up to max root spans, newest first.
func (r *ring) snapshot(max int) []*RootSpan {
	total := r.next.Load()
	n := uint64(len(r.slots))
	if total < n {
		n = total
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]*RootSpan, 0, n)
	for k := uint64(0); k < n; k++ {
		i := total - 1 - k
		if rs := r.slots[i%uint64(len(r.slots))].Load(); rs != nil {
			out = append(out, rs)
		}
	}
	return out
}

// Recent returns up to max of the most recently published root spans,
// newest first (all retained roots when max <= 0).
func (t *Tracer) Recent(max int) []*RootSpan {
	if t == nil {
		return nil
	}
	return t.ring.snapshot(max)
}

// exemplars retains the slowest root span per power-of-two duration
// bucket: bucket k holds the slowest root with duration in
// [2^k, 2^(k+1)) nanoseconds. However long the service runs and
// however often the ring wraps, the worst request of every latency
// class stays retrievable.
type exemplars struct {
	slots [65]atomic.Pointer[RootSpan]
}

// exemplarBucket maps a duration to its bucket index.
func exemplarBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := 0
	for v := uint64(d); v > 1; v >>= 1 {
		b++
	}
	return b + 1
}

// BucketFloor returns the lower duration edge of an exemplar bucket.
func BucketFloor(bucket int) time.Duration {
	if bucket <= 0 {
		return 0
	}
	return time.Duration(1) << uint(bucket-1)
}

func (e *exemplars) offer(rs *RootSpan) {
	slot := &e.slots[exemplarBucket(rs.Root.Duration)]
	for {
		cur := slot.Load()
		if cur != nil && cur.Root.Duration >= rs.Root.Duration {
			return
		}
		if slot.CompareAndSwap(cur, rs) {
			return
		}
	}
}

// Exemplar is the slowest retained root span of one latency bucket.
type Exemplar struct {
	// Bucket is the exemplar-bucket index; the root's duration lies in
	// [BucketFloor(Bucket), 2*BucketFloor(Bucket)).
	Bucket int
	Root   *RootSpan
}

// Exemplars returns the slowest root span per non-empty latency
// bucket, in ascending bucket order.
func (t *Tracer) Exemplars() []Exemplar {
	if t == nil {
		return nil
	}
	var out []Exemplar
	for i := range t.exem.slots {
		if rs := t.exem.slots[i].Load(); rs != nil {
			out = append(out, Exemplar{Bucket: i, Root: rs})
		}
	}
	return out
}
