// Package stats provides the statistical primitives used by the FBDetect
// regression-detection pipeline: descriptive statistics, distribution
// functions, hypothesis tests (likelihood-ratio, Mann-Kendall, t-tests),
// robust estimators (median absolute deviation, Theil-Sen slope), and
// correlation measures.
//
// All functions operate on []float64 and ignore NaN handling unless stated
// otherwise; callers are expected to sanitize inputs. Functions that cannot
// produce a meaningful result for their input (for example, the variance of
// fewer than two samples) return 0 rather than panicking, matching how the
// pipeline treats empty windows.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MeanVariance returns both the mean and the unbiased sample variance in a
// single pass using Welford's algorithm, which is numerically stable for the
// near-constant series common in subroutine-level gCPU data.
func MeanVariance(xs []float64) (mean, variance float64) {
	var m, m2 float64
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	if len(xs) < 2 {
		return m, 0
	}
	return m, m2 / float64(len(xs)-1)
}

// Median returns the median of xs, or 0 if xs is empty. The input is not
// modified.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks, or 0 if xs is empty. The input is not
// modified.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	buf := make([]float64, n)
	copy(buf, xs)
	return selectPercentile(buf, p)
}

// PercentileSorted is like Percentile but requires xs to be sorted ascending
// and performs no copy. It is used in hot loops over pre-sorted windows.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	if hi >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// selectPercentile returns percentileSorted(sort(buf), p) without a full
// sort, reordering buf in place; buf must be non-empty. It quickselects
// the lower interpolation rank and takes the minimum of what lies above it
// for the upper one, so the result is the same order statistics combined
// by the same expression. A NaN in buf or p falls back to the sort, whose
// NaN ordering selection does not reproduce.
func selectPercentile(buf []float64, p float64) float64 {
	n := len(buf)
	if n == 1 {
		return buf[0]
	}
	if p != p || hasNaN(buf) {
		sort.Float64s(buf)
		return percentileSorted(buf, p)
	}
	if p <= 0 {
		return Min(buf)
	}
	if p >= 100 {
		return Max(buf)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	if hi >= n {
		return Max(buf)
	}
	selectRank(buf, lo)
	return buf[lo]*(1-frac) + Min(buf[hi:])*frac
}

func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

// selectRank reorders a (NaN-free) so that a[k] holds the value a full sort
// would put there, everything before it is <= a[k] and everything after is
// >= a[k]. It is Hoare quickselect with a median-of-three pivot; after a
// logarithmic budget of partitions it sorts the remaining range, bounding
// the worst case at O(n log n).
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); hi > lo; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] <= pivot <= a[i..hi], and anything between equals
		// the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// MAD returns the median absolute deviation of xs around its median.
// Multiplying by NormalityConstant yields a robust estimate of the standard
// deviation under normality.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return selectPercentile(devs, 50)
}

// NormalityConstant scales MAD to a consistent estimator of the standard
// deviation for normally distributed data (paper §5.2.2).
const NormalityConstant = 1.4826

// Min returns the minimum of xs, or 0 if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
