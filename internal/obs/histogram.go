package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing reuses the DistortionAcc geometry from
// internal/metrics: observations are quantized to integer nanoseconds
// and binned logarithmically with histSubBins sub-bins per power of
// two (~4.5% relative resolution) in a fixed 1025-slot array covering
// the full uint64 range. All state is atomic integers, so
// ObserveDuration and Merge commute exactly.
const (
	histSubBits = 4
	histSubBins = 1 << histSubBits   // 16 sub-bins per power of two
	histBins    = 1 + 64*histSubBins // bin 0 reserved for zero
)

// Histogram is a mergeable, race-safe latency histogram over
// log-spaced nanosecond buckets. Observations are durations, kept as
// integer nanoseconds so the state stays merge-order-invariant, and
// exposed in float64 seconds (the Prometheus convention).
// Obtain instances from NewHistogram or Registry.Histogram.
type Histogram struct {
	count atomic.Uint64
	sumNs atomic.Uint64
	bins  [histBins]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// ObserveDuration records a single duration observation. Negative
// durations are clamped to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	ns := uint64(max(d, 0))
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.bins[histBin(ns)].Add(1)
}

// Merge folds o into h. ObserveDuration and Merge commute: any
// partition of the observations over any number of histograms, merged
// in any order, yields identical state.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sumNs.Add(o.sumNs.Load())
	for i := range o.bins {
		if n := o.bins[i].Load(); n != 0 {
			h.bins[i].Add(n)
		}
	}
}

// Snapshot returns a full-fidelity snapshot of h under the given series
// name and label signature: the quantile summary JSON views print plus
// the exact mergeable state (integer nanosecond sum, sparse populated
// bins) that MergeSnapshot can fold back into a histogram losslessly.
func (h *Histogram) Snapshot(name, labels string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Labels: labels,
		Count:  h.count.Load(),
		SumNs:  h.sumNs.Load(),
		Sum:    h.Sum(),
		P50:    h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
	}
	for i := range h.bins {
		if n := h.bins[i].Load(); n != 0 {
			s.Bins = append(s.Bins, HistogramBin{Bin: i, Count: n})
		}
	}
	return s
}

// MergeSnapshot folds a snapshot's exact state (Count, SumNs, Bins)
// into h. Like Merge it commutes with ObserveDuration and with itself:
// merging per-worker snapshots in any order yields the same histogram a
// single process would have produced from the same observations — the
// property the router's fleet-wide /stats aggregation depends on. Bins
// outside the histogram geometry (a corrupt or foreign snapshot) are
// dropped.
func (h *Histogram) MergeSnapshot(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	h.count.Add(s.Count)
	h.sumNs.Add(s.SumNs)
	for _, b := range s.Bins {
		if b.Bin >= 0 && b.Bin < histBins && b.Count != 0 {
			h.bins[b.Bin].Add(b.Count)
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in seconds, resolved to
// the lower edge of the containing bucket (~4.5% relative resolution,
// same contract as the metrics accumulators). Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for i := 0; i < histBins; i++ {
		cum += h.bins[i].Load()
		if cum > rank {
			return histBinEdge(i)
		}
	}
	return histBinEdge(histBins - 1)
}

// histBin maps a nanosecond value to its histogram bin; mirrors
// distBin in internal/metrics.
func histBin(ns uint64) int {
	if ns == 0 {
		return 0
	}
	l := bits.Len64(ns)
	var sub uint64
	if l > histSubBits+1 {
		sub = (ns >> uint(l-1-histSubBits)) & (histSubBins - 1)
	} else {
		sub = (ns << uint(histSubBits+1-l)) & (histSubBins - 1)
	}
	return 1 + (l-1)*histSubBins + int(sub)
}

// histBinEdge returns the lower edge of a bin, in seconds; mirrors
// distBinEdge in internal/metrics.
func histBinEdge(bin int) float64 {
	if bin == 0 {
		return 0
	}
	l := (bin - 1) / histSubBins
	sub := (bin - 1) % histSubBins
	return math.Ldexp(1+float64(sub)/histSubBins, l) * 1e-9
}
