// Package stats provides the small set of descriptive statistics used by
// the evaluation harness: means, quantiles and rank correlation, which
// operate on float64 slices and are deliberately allocation-light, and
// the log-bin geometry (LogBin, LogBinEdge, LogBinRank) that the
// mergeable histograms of internal/metrics and internal/obs share.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports a statistic requested over an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func mustNonEmpty(xs []float64) {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
}

// Quantile returns the q-th quantile (q in [0,1]) of the sample using
// linear interpolation between order statistics (type-7, the default of
// R and NumPy). It panics on an empty sample and on q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	mustNonEmpty(xs)
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// KendallTau returns the Kendall rank correlation (tau-b, which corrects
// for ties) of two equal-length samples; used to compare popularity
// rankings before and after anonymization. Identical samples give 1 even
// in the presence of tied values. Returns 0 for samples shorter than 2
// or when either sample is constant.
func KendallTau(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) != n || n < 2 {
		return 0
	}
	var concordant, discordant, tiesX, tiesY int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a := xs[i] - xs[j]
			b := ys[i] - ys[j]
			switch {
			case a == 0 && b == 0:
				tiesX++
				tiesY++
			case a == 0:
				tiesX++
			case b == 0:
				tiesY++
			case a*b > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	denom := math.Sqrt(float64(pairs-tiesX) * float64(pairs-tiesY))
	if denom == 0 {
		return 0
	}
	tau := float64(concordant-discordant) / denom
	// Clamp floating-point overshoot so that perfect agreement is exactly ±1.
	if tau > 1 {
		tau = 1
	} else if tau < -1 {
		tau = -1
	}
	return tau
}
