package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"fbdetect/internal/sax"
	"fbdetect/internal/stats"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// CheckWentAway evaluates its predicate lazily and promises the same Keep
// as evaluating every term. refWentAway is that eager evaluation, kept only
// to pin the promise: it computes all four terms over an encoder sized by
// stats.Min/stats.Max of the concatenated windows, then combines them.
func refWentAway(cfg WentAwayConfig, r *Regression) WentAwayVerdict {
	cfg = cfg.withDefaults()
	hist := r.Windows.Historic.Values
	analysis := r.Windows.Analysis.Values
	if r.ChangePoint <= 0 || r.ChangePoint >= len(analysis) || len(hist) == 0 {
		return WentAwayVerdict{}
	}
	post := append([]float64{}, analysis[r.ChangePoint:]...)
	if r.Windows.Extended != nil {
		post = append(post, r.Windows.Extended.Values...)
	}
	if len(post) == 0 {
		return WentAwayVerdict{}
	}
	combined := make([]float64, 0, len(hist)+len(analysis)+len(post))
	combined = append(combined, hist...)
	combined = append(combined, analysis...)
	combined = append(combined, post...)
	enc, err := sax.NewEncoder(cfg.SAXBuckets, cfg.SAXValidityPct,
		stats.Min(combined), stats.Max(combined)+1e-12)
	if err != nil {
		return WentAwayVerdict{}
	}
	histWord := enc.Encode(hist)
	postWord := enc.Encode(post)
	postAnalysisWord := enc.Encode(analysis[r.ChangePoint:])

	v := WentAwayVerdict{}
	v.NewPattern = newPattern(cfg, enc, histWord, postWord, post)
	v.SignificantRegression = significantRegression(histWord, postAnalysisWord, hist, post)
	v.LastingTrend = lastingTrend(cfg, analysis, post, r.ChangePoint)
	v.GoneAway = regressionGoneAway(cfg, post, r)
	v.Keep = v.NewPattern ||
		(v.SignificantRegression && v.LastingTrend && !v.GoneAway)
	return v
}

// lazyTerms is what CheckWentAway should report given the eager verdict:
// the terms up to the deciding one as computed, the rest false.
func lazyTerms(eager WentAwayVerdict) WentAwayVerdict {
	v := WentAwayVerdict{Keep: eager.Keep, NewPattern: eager.NewPattern}
	if v.NewPattern {
		return v
	}
	if v.GoneAway = eager.GoneAway; v.GoneAway {
		return v
	}
	if v.SignificantRegression = eager.SignificantRegression; !v.SignificantRegression {
		return v
	}
	v.LastingTrend = eager.LastingTrend
	return v
}

func checkWentAwayEquiv(t *testing.T, name string, cfg WentAwayConfig, r *Regression) {
	t.Helper()
	eager := refWentAway(cfg, r)
	if want := eager.NewPattern || (eager.SignificantRegression && eager.LastingTrend && !eager.GoneAway); eager.Keep != want {
		t.Fatalf("%s: reference Keep %v disagrees with its terms %+v", name, eager.Keep, eager)
	}
	got := CheckWentAway(cfg, r)
	if got.Keep != eager.Keep {
		t.Fatalf("%s: lazy Keep %v, eager Keep %v (eager terms %+v)", name, got.Keep, eager.Keep, eager)
	}
	if want := lazyTerms(eager); got != want {
		t.Fatalf("%s: lazy verdict %+v, want %+v", name, got, want)
	}
}

// wentAwayShape describes one synthetic candidate: noisy windows at level,
// stepped up by step from change point cp of the analysis window for
// recoverAfter points (0 = until the end), with raw overriding single
// points (10-byte records: uint16 index, float64 bits).
type wentAwayShape struct {
	seed                  int64
	nHist, nAna, nExt, cp int
	level, step, sigma    float64
	recoverAfter, tailPts int
	raw                   []byte
}

// override encodes one raw record for wentAwayShape.raw.
func override(idx int, v float64) []byte {
	out := make([]byte, 10)
	binary.BigEndian.PutUint16(out, uint16(idx))
	binary.BigEndian.PutUint64(out[2:], math.Float64bits(v))
	return out
}

// build returns the shape's candidate, deriving Before/After/Delta from
// the analysis window the way the short-term detector reports them.
func (s wentAwayShape) build() (WentAwayConfig, *Regression) {
	rng := rand.New(rand.NewSource(s.seed))
	all := make([]float64, s.nHist+s.nAna+s.nExt)
	for i := range all {
		v := s.level + s.sigma*rng.NormFloat64()
		if k := i - s.nHist - s.cp; k >= 0 && (s.recoverAfter == 0 || k < s.recoverAfter) {
			v += s.step
		}
		all[i] = v
	}
	for raw := s.raw; len(raw) >= 10 && len(all) > 0; raw = raw[10:] {
		all[int(binary.BigEndian.Uint16(raw))%len(all)] = math.Float64frombits(binary.BigEndian.Uint64(raw[2:]))
	}
	at := func(off, n int) *timeseries.Series {
		return timeseries.New(t0.Add(time.Duration(off)*time.Minute), time.Minute, all[off:off+n])
	}
	r := NewRegressionRecord(tsdb.ID("svc", "sub", "gcpu"))
	r.Windows = timeseries.Windows{
		Historic: at(0, s.nHist),
		Analysis: at(s.nHist, s.nAna),
		Extended: at(s.nHist+s.nAna, s.nExt),
	}
	r.ChangePoint = s.cp
	if s.cp > 0 && s.cp < s.nAna {
		ana := r.Windows.Analysis.Values
		r.Before, r.After = mean(ana[:s.cp]), mean(ana[s.cp:])
		r.Delta = r.After - r.Before
	}
	return WentAwayConfig{GoneAwayTailPoints: s.tailPts}, r
}

// wentAwaySeedShapes are the paper's went-away shapes plus the degenerate
// windows the predicate must survive.
func wentAwaySeedShapes() map[string]wentAwayShape {
	fig7 := []byte{}
	for i := 200; i < 208; i++ { // 2% spike in history
		fig7 = append(fig7, override(i, 14)...)
	}
	plateau := []byte{}
	for i := 100; i < 140; i++ { // 10% of history at a higher level
		plateau = append(plateau, override(i, 12)...)
	}
	nanPost := append(override(400+150, math.NaN()), override(400+200+30, math.NaN())...)
	return map[string]wentAwayShape{
		"true-regression":    {seed: 1, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 0.3, sigma: 0.2},
		"fig1c-transient":    {seed: 2, nHist: 400, nAna: 200, nExt: 60, cp: 80, level: 10, step: 3, sigma: 0.2, recoverAfter: 40},
		"fig7-hist-spike":    {seed: 3, nHist: 400, nAna: 200, nExt: 60, cp: 120, level: 10, step: 1.5, sigma: 0.2, raw: fig7},
		"new-pattern":        {seed: 5, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 10, sigma: 0.1},
		"improvement":        {seed: 6, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: -8, sigma: 0.1},
		"below-hist-plateau": {seed: 8, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 0.3, sigma: 0.2, raw: plateau},
		"tail-recovery":      {seed: 12, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 2, sigma: 0.2, recoverAfter: 144},
		"nan-hist-first":     {seed: 4, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 1, sigma: 0.2, raw: override(0, math.NaN())},
		"nan-post":           {seed: 4, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 1, sigma: 0.2, raw: nanPost},
		"hist-outlier":       {seed: 4, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 0.3, sigma: 0.2, raw: override(1, 20)},
		"inf-analysis":       {seed: 4, nHist: 400, nAna: 200, nExt: 60, cp: 100, level: 10, step: 1, sigma: 0.2, raw: override(450, math.Inf(1))},
		"constant":           {seed: 9, nHist: 100, nAna: 100, nExt: 0, cp: 50, level: 5},
		"constant-step":      {seed: 9, nHist: 100, nAna: 100, nExt: 20, cp: 50, level: 5, step: 1},
		"one-point-post":     {seed: 10, nHist: 100, nAna: 50, nExt: 0, cp: 49, level: 10, step: 2, sigma: 0.2},
		"huge-values":        {seed: 11, nHist: 100, nAna: 100, nExt: 0, cp: 50, level: 1e9, step: 2e8, sigma: 1e8},
		"fixed-tail":         {seed: 13, nHist: 200, nAna: 100, nExt: 30, cp: 40, level: 3, step: 0.5, sigma: 0.2, tailPts: 7},
		"bad-change-point":   {seed: 7, nHist: 50, nAna: 50, nExt: 0, cp: 0, level: 10, sigma: 0.1},
	}
}

func TestWentAwayLazyMatchesEager(t *testing.T) {
	for name, s := range wentAwaySeedShapes() {
		cfg, r := s.build()
		checkWentAwayEquiv(t, name, cfg, r)
	}
	// Random shapes across the whole predicate: every term gets to decide.
	rng := rand.New(rand.NewSource(42))
	decided := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		nAna := 20 + rng.Intn(200)
		s := wentAwayShape{
			seed:  rng.Int63(),
			nHist: 10 + rng.Intn(400),
			nAna:  nAna,
			nExt:  rng.Intn(80),
			cp:    1 + rng.Intn(nAna-1),
			level: rng.Float64() * 100,
			step:  (rng.Float64() - 0.3) * 10,
			sigma: rng.Float64() * 2,
		}
		if rng.Intn(3) == 0 {
			s.recoverAfter = 1 + rng.Intn(nAna)
		}
		cfg, r := s.build()
		checkWentAwayEquiv(t, "random", cfg, r)
		switch v := refWentAway(cfg, r); {
		case v.NewPattern:
			decided["new-pattern"]++
		case v.GoneAway:
			decided["gone-away"]++
		case !v.SignificantRegression:
			decided["significance"]++
		default:
			decided["lasting-trend"]++
		}
	}
	for _, term := range []string{"new-pattern", "gone-away", "significance", "lasting-trend"} {
		if decided[term] == 0 {
			t.Errorf("no random shape was decided by %s (coverage: %v)", term, decided)
		}
	}
}

func FuzzWentAway(f *testing.F) {
	shapes := wentAwaySeedShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := shapes[name]
		f.Add(s.seed, uint16(s.nHist), uint16(s.nAna), uint16(s.nExt), uint16(s.cp),
			s.level, s.step, s.sigma, uint16(s.recoverAfter), uint8(s.tailPts), s.raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, nHist, nAna, nExt, cp uint16,
		level, step, sigma float64, recoverAfter uint16, tailPts uint8, raw []byte) {
		// Bounded windows keep each execution (and minimization) fast; the
		// production windows are a few hundred points.
		const maxLen = 600
		s := wentAwayShape{
			seed:  seed,
			nHist: int(nHist) % maxLen,
			nAna:  int(nAna) % maxLen,
			nExt:  int(nExt) % maxLen,
			cp:    int(cp) % maxLen,
			level: level, step: step, sigma: sigma,
			recoverAfter: int(recoverAfter),
			tailPts:      int(tailPts),
			raw:          raw,
		}
		cfg, r := s.build()
		checkWentAwayEquiv(t, "fuzz", cfg, r)
	})
}

// BenchmarkCheckWentAway times the predicate on candidates decided at
// different terms, lazily and with the eager reference for contrast.
// Almost every production candidate is dropped (paper §5.2.2), most of
// them before the trend term runs.
func BenchmarkCheckWentAway(b *testing.B) {
	shapes := wentAwaySeedShapes()
	cases := []struct {
		name  string
		shape wentAwayShape
		want  WentAwayVerdict // lazily reported terms
	}{
		{"significance-drop", shapes["below-hist-plateau"], WentAwayVerdict{}},
		{"new-pattern-keep", shapes["new-pattern"], WentAwayVerdict{Keep: true, NewPattern: true}},
		{"lasting-trend-keep", shapes["true-regression"],
			WentAwayVerdict{Keep: true, SignificantRegression: true, LastingTrend: true}},
	}
	for _, c := range cases {
		cfg, r := c.shape.build()
		if got := CheckWentAway(cfg, r); got != c.want {
			b.Fatalf("%s: verdict %+v, want %+v", c.name, got, c.want)
		}
		for _, impl := range []struct {
			name  string
			check func(WentAwayConfig, *Regression) WentAwayVerdict
		}{{"lazy", CheckWentAway}, {"eager", refWentAway}} {
			b.Run(c.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.check(cfg, r)
				}
			})
		}
	}
}
