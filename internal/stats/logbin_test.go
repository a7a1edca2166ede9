package stats

import (
	"math"
	"math/big"
	"sort"
	"testing"
)

// TestLogBinMonotonic pins the log-bin geometry: binning is monotone in
// the value, stays in range, and every value lies in its own bin,
// edge(bin(v)) <= v < edge(bin(v)+1), at both sides of every power of
// two. The comparison is exact (big.Float), since float64 cannot hold
// 2^63±1.
func TestLogBinMonotonic(t *testing.T) {
	vals := []uint64{0, 3, 15, 17, 100, 1000, 1e6, 5e6, 1e9, 1e12, math.MaxUint64}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	prev := 0
	for _, v := range vals {
		b := LogBin(v)
		if b < prev {
			t.Fatalf("LogBin(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
		if b >= LogBins {
			t.Fatalf("LogBin(%d) = %d out of range", v, b)
		}
		x := new(big.Float).SetUint64(v)
		if lo := big.NewFloat(LogBinEdge(b)); lo.Cmp(x) > 0 {
			t.Fatalf("edge(%d) = %v above value %d", b, LogBinEdge(b), v)
		}
		if hi := big.NewFloat(LogBinEdge(b + 1)); x.Cmp(hi) >= 0 {
			t.Fatalf("value %d not below next edge(%d) = %v", v, b+1, LogBinEdge(b+1))
		}
	}
}

// TestLogBinRank pins the rank walk: the first bin whose cumulative
// count exceeds floor(q*(n-1)), with q clamped to [0, 1].
func TestLogBinRank(t *testing.T) {
	counts := map[int]uint64{0: 2, 5: 3, 9: 5}
	count := func(b int) uint64 { return counts[b] }
	for _, tc := range []struct {
		q    float64
		want int
	}{{-1, 0}, {0, 0}, {0.2, 0}, {0.25, 5}, {0.5, 5}, {0.6, 9}, {1, 9}, {2, 9}} {
		if got := LogBinRank(10, tc.q, count); got != tc.want {
			t.Errorf("LogBinRank(q=%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := LogBinRank(11, 1, count); got != LogBins-1 {
		t.Errorf("rank past the counts' total = %d, want last bin %d", got, LogBins-1)
	}
}
