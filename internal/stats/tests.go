package stats

import "math"

// TTestResult holds the outcome of a two-sample t-test.
type TTestResult struct {
	T  float64 // the t statistic
	DF float64 // effective degrees of freedom
	P  float64 // two-sided p-value (normal approximation of the t tail)
}

// WelchTTest compares the means of two samples without assuming equal
// variances (Welch's t-test). It returns a zero-valued result if either
// sample has fewer than two observations.
func WelchTTest(a, b []float64) TTestResult {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{P: 1}
	}
	ma, va := MeanVariance(a)
	mb, vb := MeanVariance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		if ma == mb {
			return TTestResult{P: 1}
		}
		return TTestResult{T: math.Inf(1), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / se
	// Welch-Satterthwaite degrees of freedom.
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	// For the large windows FBDetect uses, the t distribution is
	// indistinguishable from normal; use the normal tail for the p-value.
	p := 2 * (1 - NormalCDF(math.Abs(t), 0, 1))
	return TTestResult{T: t, DF: df, P: p}
}

// LikelihoodRatioResult holds the outcome of the change-point
// likelihood-ratio test of paper §5.2.1.
type LikelihoodRatioResult struct {
	Statistic float64 // -2 log(likelihood ratio)
	P         float64 // p-value against chi-squared with 2 dof
	Reject    bool    // true if H0 (single mean) is rejected
}

// LikelihoodRatioTest tests H0 "the series has a single mean" against H1
// "the series has one change point at index t, with different means before
// and after" under a Gaussian model, using the chi-squared approximation of
// the -2 log likelihood ratio with 2 degrees of freedom (one extra mean and
// the change-point location). alpha is the significance level (the paper
// uses 0.01).
func LikelihoodRatioTest(xs []float64, t int, alpha float64) LikelihoodRatioResult {
	n := len(xs)
	if t <= 0 || t >= n || n < 4 {
		return LikelihoodRatioResult{P: 1}
	}
	// H0: one segment.
	_, v0 := MeanVariance(xs)
	// H1: two segments sharing a pooled variance around their own means.
	m1, _ := MeanVariance(xs[:t])
	m2, _ := MeanVariance(xs[t:])
	ss := 0.0
	for i, x := range xs {
		var d float64
		if i < t {
			d = x - m1
		} else {
			d = x - m2
		}
		ss += d * d
	}
	v1 := ss / float64(n)
	v0 = v0 * float64(n-1) / float64(n) // convert to MLE variance
	if v1 <= 0 || v0 <= 0 {
		// Degenerate (constant) segments: reject only if the two means differ.
		if m1 != m2 {
			return LikelihoodRatioResult{Statistic: math.Inf(1), P: 0, Reject: true}
		}
		return LikelihoodRatioResult{P: 1}
	}
	stat := float64(n) * math.Log(v0/v1)
	if stat < 0 {
		stat = 0
	}
	p := ChiSquaredSurvival(stat, 2)
	return LikelihoodRatioResult{Statistic: stat, P: p, Reject: p < alpha}
}

// TrendDirection classifies the monotonic trend found by the Mann-Kendall
// test.
type TrendDirection int

// Trend directions returned by MannKendall.
const (
	TrendNone TrendDirection = iota
	TrendIncreasing
	TrendDecreasing
)

func (d TrendDirection) String() string {
	switch d {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "none"
	}
}

// MannKendallResult holds the outcome of the Mann-Kendall trend test.
type MannKendallResult struct {
	S     float64 // the Mann-Kendall S statistic
	Z     float64 // normalized statistic
	P     float64 // two-sided p-value
	Trend TrendDirection
}

// MannKendall performs the non-parametric Mann-Kendall test for a monotonic
// trend at significance level alpha. Ties are handled with the standard
// variance correction.
//
// S is computed in O(n log n) by counting inversions during a merge sort
// (Knight 1966), and the tie groups are read off the same sorted copy. S
// and the variance are integer-valued floats below 2^53 for any window
// under ~160k points, so the result is bit-identical to the O(n^2) pair
// loop.
func MannKendall(xs []float64, alpha float64) MannKendallResult {
	n := len(xs)
	if n < 4 {
		return MannKendallResult{P: 1, Trend: TrendNone}
	}
	s, v := mannKendallSV(xs)
	var z float64
	switch {
	case v == 0:
		z = 0
	case s > 0:
		z = (s - 1) / math.Sqrt(v)
	case s < 0:
		z = (s + 1) / math.Sqrt(v)
	}
	p := 2 * (1 - NormalCDF(math.Abs(z), 0, 1))
	res := MannKendallResult{S: s, Z: z, P: p, Trend: TrendNone}
	if p < alpha {
		if z > 0 {
			res.Trend = TrendIncreasing
		} else if z < 0 {
			res.Trend = TrendDecreasing
		}
	}
	return res
}

// mannKendallSV returns the Mann-Kendall S statistic and its tie-corrected
// variance.
func mannKendallSV(xs []float64) (s, v float64) {
	nf := float64(len(xs))
	v = nf * (nf - 1) * (2*nf + 5)
	// A pair with a NaN adds 0 to S and a NaN ties with nothing, so only
	// the other values are counted, in order; the base variance keeps the
	// full n.
	if hasNaN(xs) {
		ys := make([]float64, 0, len(xs))
		for _, x := range xs {
			if x == x {
				ys = append(ys, x)
			}
		}
		xs = ys
	}
	n := len(xs)
	sorted, inversions := sortCountInversions(xs)
	// Of the n(n-1)/2 pairs, tied ones add 0 to S, inverted ones -1 and
	// the rest +1.
	pairs := int64(n) * int64(n-1) / 2
	var tied int64
	for i := 0; i < n; {
		j := i + 1
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		c := int64(j - i)
		tied += c * (c - 1) / 2
		v -= tieTerm(int(c))
		i = j
	}
	return float64(pairs - tied - 2*inversions), v / 18
}

// tieTerm is one tie group's reduction of the Mann-Kendall variance
// (before the division by 18).
func tieTerm(c int) float64 {
	if c < 2 {
		return 0
	}
	cf := float64(c)
	return cf * (cf - 1) * (2*cf + 5)
}

// sortCountInversions returns a sorted copy of xs and the number of pairs
// i < j with xs[i] > xs[j], by bottom-up merge sort. Equal values are not
// inversions: the merge takes from the left run on ties.
func sortCountInversions(xs []float64) ([]float64, int64) {
	n := len(xs)
	a := make([]float64, 2*n)
	src, dst := a[:n], a[n:]
	copy(src, xs)
	var inv int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j] < src[i] {
					dst[k] = src[j]
					inv += int64(mid - i)
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	return src, inv
}
