package stats

import (
	"math"
	"sort"
)

// KLL is a fixed-size mergeable quantile sketch in the KLL family
// (Karnin–Lang–Liberty), with one deliberate deviation: compaction is
// canonical and deterministic instead of randomized. Each level holds
// at most K items of weight 2^level; when a level overflows it is
// sorted and the odd-ranked items are promoted one level up (doubling
// their weight) while the even-ranked items are discarded. Because the
// compaction of a buffer is a pure function of its contents, two
// sketches fed the same stream are bit-identical — there is no seed to
// thread and no run-to-run jitter — at the cost of the randomized
// variant's unbiasedness (the deterministic rank error stays bounded
// by O(n/K) per level, amortized across levels).
//
// The property the evaluation accumulators build on is the exact
// regime: until more than K items have been added (Exact() reports
// this), no compaction has happened and the sketch's state is the full
// multiset of inputs. In that regime quantiles are exact order
// statistics and — since a multiset has no order — Add and Merge
// commute bit-identically: any partition of the inputs over any number
// of sketches, merged in any order, yields the same state. Beyond the
// exact regime the sketch remains deterministic per stream and its
// quantiles ε-bounded, but different partitions may compact different
// buffers, so callers that require strict merge-order invariance (the
// accumulator contract in internal/metrics) should consult the sketch
// only while Exact() holds and fall back to an order-invariant summary
// afterwards. Exact() itself is order-invariant: it depends only on
// the total count, never on how the inputs were partitioned.
type KLL struct {
	k      int
	n      uint64
	levels [][]float64 // levels[l] items carry weight 1<<l
}

// DefaultKLLK is the per-level capacity used by the evaluation
// accumulators: large enough that the paper-scale runs (tens to
// hundreds of pooled samples) stay in the exact regime, small enough
// that worst-case memory is a few KB per sketch.
const DefaultKLLK = 256

// NewKLL returns an empty sketch with per-level capacity k (minimum 2;
// values below are raised).
func NewKLL(k int) *KLL {
	if k < 2 {
		k = 2
	}
	return &KLL{k: k, levels: [][]float64{make([]float64, 0, k+1)}}
}

// Exact reports whether the sketch still holds every input verbatim —
// true exactly while at most k items were added. In this regime
// Quantile returns exact order statistics and the state is a pure
// function of the input multiset.
func (s *KLL) Exact() bool { return s.n <= uint64(s.k) }

// Add folds one value into the sketch. NaN is ignored (a quantile over
// NaN is meaningless and one poisoned sample must not wreck the
// sketch).
func (s *KLL) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.n++
	s.levels[0] = append(s.levels[0], v)
	s.compact()
}

// Merge folds another sketch into s. The two must share the same
// capacity K; merging concatenates the per-level buffers and
// recompacts canonically. While the combined count stays within K the
// result is the exact multiset union, identical whatever the merge
// order.
func (s *KLL) Merge(o *KLL) {
	if o == nil || o.n == 0 {
		return
	}
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, nil)
	}
	for l, buf := range o.levels {
		s.levels[l] = append(s.levels[l], buf...)
	}
	s.n += o.n
	s.compact()
}

// compact cascades the canonical compaction: the lowest overfull level
// is sorted, its odd-ranked items promoted (weight doubles), its
// even-ranked items discarded. An odd-length buffer keeps its largest
// item in place so no weight is lost.
func (s *KLL) compact() {
	for l := 0; l < len(s.levels); l++ {
		if len(s.levels[l]) <= s.k {
			continue
		}
		buf := s.levels[l]
		sort.Float64s(buf)
		keepTop := len(buf)%2 == 1
		pairs := len(buf) / 2
		if l+1 == len(s.levels) {
			s.levels = append(s.levels, make([]float64, 0, s.k+1))
		}
		for i := 0; i < pairs; i++ {
			s.levels[l+1] = append(s.levels[l+1], buf[2*i+1])
		}
		if keepTop {
			buf[0] = buf[len(buf)-1]
			s.levels[l] = buf[:1]
		} else {
			s.levels[l] = buf[:0]
		}
	}
}

// Quantile returns the q-th quantile (q clamped to [0, 1]) as the
// weighted lower order statistic at rank floor(q*(n-1)); 0 on an empty
// sketch. In the exact regime this is the exact sample quantile (lower
// order statistic, matching the histogram accumulators' rank rule).
func (s *KLL) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	type wv struct {
		v float64
		w uint64
	}
	items := make([]wv, 0, s.k)
	for l, buf := range s.levels {
		for _, v := range buf {
			items = append(items, wv{v: v, w: 1 << uint(l)})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	// Compaction preserves total weight exactly (each promoted item
	// doubles while its discarded partner's weight vanishes), so total
	// equals n; summing here keeps the rank honest regardless.
	var total uint64
	for _, it := range items {
		total += it.w
	}
	rank := uint64(q * float64(total-1))
	var cum uint64
	for _, it := range items {
		cum += it.w
		if cum > rank {
			return it.v
		}
	}
	return items[len(items)-1].v
}
