package stats

import "math"

// Pearson returns the Pearson correlation coefficient between a and b,
// computed over the first min(len(a), len(b)) points. It returns 0 when
// either series is constant or too short.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return 0
	}
	ma := Mean(a[:n])
	mb := Mean(b[:n])
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da := a[i] - ma
		db := b[i] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Autocorrelation returns the autocorrelation of xs at the given lag, or 0
// if the series is too short or constant.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// DominantSeasonLag scans lags in [minLag, maxLag] and returns the lag with
// the highest autocorrelation along with that correlation. It returns
// (0, 0) when no lag reaches any positive correlation. The seasonality
// detector (paper §5.2.3) treats the series as seasonal when the returned
// correlation is significant.
//
// The result is bit-identical to calling Autocorrelation for every lag:
// the mean, the deviations and the variance denominator are computed once,
// and each lag's numerator sums the same products in the same index order.
// Four lags share one pass over the deviations, each in its own
// accumulator, so the additions of different lags overlap in the pipeline.
func DominantSeasonLag(xs []float64, minLag, maxLag int) (lag int, corr float64) {
	if minLag < 1 {
		minLag = 1
	}
	n := len(xs)
	if maxLag >= n/2 {
		maxLag = n/2 - 1
	}
	if minLag > maxLag {
		return 0, 0
	}
	m := Mean(xs)
	d := make([]float64, n)
	var den float64
	for i, x := range xs {
		di := x - m
		d[i] = di
		den += di * di
	}
	if den == 0 {
		return 0, 0
	}
	best, bestLag := 0.0, 0
	l := minLag
	for ; l+3 <= maxLag; l += 4 {
		// Lags l..l+3 share the prefix i < n-l-3; each then finishes its
		// own tail, keeping every accumulator in ascending index order.
		end := n - l - 3
		x := d[:end]
		y0, y1, y2, y3 := d[l:l+end], d[l+1:l+1+end], d[l+2:l+2+end], d[l+3:l+3+end]
		var s0, s1, s2, s3 float64
		for i, di := range x {
			s0 += di * y0[i]
			s1 += di * y1[i]
			s2 += di * y2[i]
			s3 += di * y3[i]
		}
		for i := end; i < n-l; i++ {
			s0 += d[i] * d[i+l]
		}
		for i := end; i < n-l-1; i++ {
			s1 += d[i] * d[i+l+1]
		}
		for i := end; i < n-l-2; i++ {
			s2 += d[i] * d[i+l+2]
		}
		for k, s := range [4]float64{s0, s1, s2, s3} {
			if c := s / den; c > best {
				best, bestLag = c, l+k
			}
		}
	}
	for ; l <= maxLag; l++ {
		var s float64
		for i := 0; i < n-l; i++ {
			s += d[i] * d[i+l]
		}
		if c := s / den; c > best {
			best, bestLag = c, l
		}
	}
	return bestLag, best
}

// AutocorrelationSignificance returns the approximate two-sided 95%
// significance bound for autocorrelation of a white-noise series of length
// n: 1.96/sqrt(n). Correlations beyond the bound indicate structure.
func AutocorrelationSignificance(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.96 / math.Sqrt(float64(n))
}

// CosineSimilarity returns the cosine of the angle between vectors a and b
// over their first min(len) components, or 0 if either has zero norm.
func CosineSimilarity(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
