package core

import (
	"fbdetect/internal/sax"
	"fbdetect/internal/stats"
)

// WentAwayVerdict explains the went-away detector's decision for one
// regression candidate.
type WentAwayVerdict struct {
	// Keep is true when the regression is considered real (not transient).
	Keep bool
	// Term-level outcomes of the paper's predicate:
	// NewPattern OR (SignificantRegression AND LastingTrend AND NOT GoneAway).
	// CheckWentAway evaluates the terms in the order NewPattern, GoneAway,
	// SignificantRegression, LastingTrend and stops at the first one that
	// decides Keep; the terms after it are reported false.
	NewPattern            bool
	SignificantRegression bool
	LastingTrend          bool
	GoneAway              bool
}

// CheckWentAway evaluates the went-away predicate of paper §5.2.2 on a
// regression candidate. The post-regression window is the analysis window
// after the change point joined with the extended window; history is the
// historic window.
//
// The predicate is evaluated lazily, cheapest deciding term first:
// NewPattern is the only term that keeps a candidate on its own, so it runs
// first; GoneAway (a tail mean) and SignificantRegression (a letter check
// and three percentiles) can each drop the candidate cheaply; LastingTrend
// (Mann-Kendall and Theil-Sen) runs only for a candidate that passed all of
// those. Every term is a pure function of the windows, so Keep equals the
// eagerly evaluated formula on every input.
func CheckWentAway(cfg WentAwayConfig, r *Regression) WentAwayVerdict {
	cfg = cfg.withDefaults()
	hist := r.Windows.Historic.Values
	analysis := r.Windows.Analysis.Values
	if r.ChangePoint <= 0 || r.ChangePoint >= len(analysis) || len(hist) == 0 {
		return WentAwayVerdict{}
	}
	var extended []float64
	if r.Windows.Extended != nil {
		extended = r.Windows.Extended.Values
	}
	post := make([]float64, 0, len(analysis)-r.ChangePoint+len(extended))
	post = append(post, analysis[r.ChangePoint:]...)
	post = append(post, extended...)

	// Build one SAX encoder spanning the value range of all windows so
	// letters are comparable across them. The post window repeats values
	// of the analysis and extended windows, so it adds nothing to the range.
	lo, hi := extendRange(hist[0], hist[0], hist[1:])
	lo, hi = extendRange(lo, hi, analysis)
	lo, hi = extendRange(lo, hi, extended)
	enc, err := sax.NewEncoder(cfg.SAXBuckets, cfg.SAXValidityPct, lo, hi+1e-12)
	if err != nil {
		return WentAwayVerdict{}
	}
	histWord := enc.Encode(hist)

	var v WentAwayVerdict
	if v.NewPattern = newPattern(cfg, enc, histWord, enc.Encode(post), post); v.NewPattern {
		v.Keep = true
		return v
	}
	if v.GoneAway = regressionGoneAway(cfg, post, r); v.GoneAway {
		return v
	}
	postAnalysisWord := enc.Encode(analysis[r.ChangePoint:])
	if v.SignificantRegression = significantRegression(histWord, postAnalysisWord, hist, post); !v.SignificantRegression {
		return v
	}
	v.LastingTrend = lastingTrend(cfg, analysis, post, r.ChangePoint)
	v.Keep = v.LastingTrend
	return v
}

// extendRange folds xs into the running [lo, hi] with the comparisons of
// stats.Min and stats.Max, so the result matches those over the
// concatenation of every folded slice.
func extendRange(lo, hi float64, xs []float64) (float64, float64) {
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// newPattern reports whether the post-regression window forms a pattern
// unseen in history: most of its letters are invalid in the historic word,
// unless the post average sits below the lowest valid historic bucket
// (no cost increase despite novelty). The novelty must also persist into
// the tail of the window — a long transient whose letters are historically
// invalid but which has recovered by the window's end is not a new
// pattern, it is a transient (the situation Figure 1(c) illustrates).
func newPattern(cfg WentAwayConfig, enc *sax.Encoder, histWord, postWord sax.Word, post []float64) bool {
	if postWord.InvalidFraction(histWord) < cfg.NewPatternFraction {
		return false
	}
	tail := tailLen(cfg, len(post))
	tailWord := enc.Encode(post[len(post)-tail:])
	if tailWord.InvalidFraction(histWord) < cfg.NewPatternFraction {
		return false
	}
	lowest := histWord.MinValidLetter()
	if lowest >= 0 && stats.Mean(post) < enc.LetterLowerBound(lowest) {
		return false
	}
	return true
}

// tailLen returns the number of trailing points the gone-away and
// new-pattern checks examine.
func tailLen(cfg WentAwayConfig, postLen int) int {
	tail := cfg.GoneAwayTailPoints
	if tail <= 0 {
		tail = postLen / 10
	}
	if tail < 3 {
		tail = 3
	}
	if tail > postLen {
		tail = postLen
	}
	return tail
}

// significantRegression checks the magnitude: the largest letter after the
// change point reaches the largest valid pre-regression letter, and the
// post P90 exceeds both the historic P95 and the previous day's P90 (we
// use the trailing quarter of the historic window as "the previous day").
func significantRegression(histWord, postAnalysisWord sax.Word, hist, post []float64) bool {
	maxValidPre := histWord.MaxValidLetter()
	if maxValidPre >= 0 && postAnalysisWord.MaxLetter() < maxValidPre {
		return false
	}
	p90Post := stats.Percentile(post, 90)
	if p90Post <= stats.Percentile(hist, 95) {
		return false
	}
	prevDay := hist[len(hist)-len(hist)/4:]
	return p90Post > stats.Percentile(prevDay, 90)
}

// lastingTrend checks that the regression persists as a monotonic upward
// trend. Mann-Kendall runs on both the post-regression window and the
// entire analysis window; the Theil-Sen slope of the lower-sloped trending
// window is compared against the MAD-based regression threshold.
func lastingTrend(cfg WentAwayConfig, analysis, post []float64, cp int) bool {
	mkPost := stats.MannKendall(post, 0.05)
	mkAll := stats.MannKendall(analysis, 0.05)
	if mkPost.Trend != stats.TrendIncreasing && mkAll.Trend != stats.TrendIncreasing {
		return false
	}
	// Total rise over each trending window, using the lower estimate.
	rise := 0.0
	set := false
	if mkAll.Trend == stats.TrendIncreasing {
		slope, _ := stats.TheilSen(analysis)
		rise, set = slope*float64(len(analysis)), true
	}
	if mkPost.Trend == stats.TrendIncreasing {
		slope, _ := stats.TheilSen(post)
		if riseP := slope * float64(len(post)); !set || riseP < rise {
			rise = riseP
		}
	}
	threshold := cfg.TrendCoefficient * stats.MAD(analysis[:cp]) * stats.NormalityConstant
	return rise >= threshold
}

// regressionGoneAway is the final sanity check: the last few data points
// have recovered toward the pre-regression level.
func regressionGoneAway(cfg WentAwayConfig, post []float64, r *Regression) bool {
	tail := tailLen(cfg, len(post))
	tailMean := stats.Mean(post[len(post)-tail:])
	return tailMean <= r.Before+cfg.GoneAwayRecoveryFraction*r.Delta
}
