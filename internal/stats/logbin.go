package stats

import (
	"math"
	"math/bits"
)

// Log-bin geometry shared by the mergeable histograms (the distortion
// accumulator in internal/metrics, the latency histogram in
// internal/obs): a non-negative integer value is binned logarithmically
// with LogSubBins sub-bins per power of two (~4.5% relative resolution)
// in a fixed LogBins-slot array covering the full uint64 range, bin 0
// reserved for zero. Callers keep integer counts per bin, so adding and
// merging commute exactly.
const (
	logSubBits = 4
	LogSubBins = 1 << logSubBits   // 16 sub-bins per power of two
	LogBins    = 1 + 64*LogSubBins // bin 0 reserved for zero
)

// LogBin maps a value to its bin.
func LogBin(v uint64) int {
	if v == 0 {
		return 0
	}
	l := bits.Len64(v)
	var sub uint64
	if l > logSubBits+1 {
		sub = (v >> uint(l-1-logSubBits)) & (LogSubBins - 1)
	} else {
		sub = (v << uint(logSubBits+1-l)) & (LogSubBins - 1)
	}
	return 1 + (l-1)*LogSubBins + int(sub)
}

// LogBinEdge returns the lower edge of a bin in the binned value's own
// unit; callers scale it to theirs.
func LogBinEdge(bin int) float64 {
	if bin == 0 {
		return 0
	}
	l := (bin - 1) / LogSubBins
	sub := (bin - 1) % LogSubBins
	return math.Ldexp(1+float64(sub)/LogSubBins, l)
}

// LogBinRank returns the bin holding the q-quantile (q clamped to
// [0, 1]) of n > 0 binned values: the first bin whose cumulative count
// exceeds floor(q·(n−1)), the lower order statistic. count(bin) reads
// one bin's count; if the counts total less than n, the walk ends at
// the last bin.
func LogBinRank(n uint64, q float64, count func(bin int) uint64) int {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for b := 0; b < LogBins; b++ {
		cum += count(b)
		if cum > rank {
			return b
		}
	}
	return LogBins - 1
}
