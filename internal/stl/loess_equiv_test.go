package stl

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fbdetect/internal/stats"
)

// The reference below is the one-point-at-a-time Loess the row-table kernel
// replaced, kept verbatim (renamed) so the kernel can be pinned to it bit
// for bit: refLoess shares one interior weight vector and fits every
// clamped boundary point with refLoessPoint. refDecompose and
// refDetectPeriod are Decompose and DetectPeriod built on it.

func refLoess(ys []float64, span int) []float64 {
	return refLoessInto(make([]float64, len(ys)), ys, span)
}

func refLoessInto(dst, ys []float64, span int) []float64 {
	n := len(ys)
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if span > n {
		span = n
	}
	if span < 2 {
		copy(dst, ys)
		return dst
	}
	return refNewLoessFit(span).into(dst, ys)
}

type refLoessFit struct {
	span, half         int
	w, wu              []float64 // weight and weight·u per window offset
	sw, swu, swuu, den float64
}

func refNewLoessFit(span int) *refLoessFit {
	half := span / 2
	f := &refLoessFit{
		span: span, half: half,
		w:  make([]float64, span),
		wu: make([]float64, span),
	}
	maxDist := math.Max(float64(half), float64(span-1-half))
	for k := 0; k < span; k++ {
		u := float64(k - half)
		wk := refTricube(math.Abs(u) / maxDist)
		f.w[k] = wk
		f.wu[k] = wk * u
		f.sw += wk
		f.swu += wk * u
		f.swuu += wk * u * u
	}
	f.den = f.sw*f.swuu - f.swu*f.swu
	return f
}

func (f *refLoessFit) into(dst, ys []float64) []float64 {
	n := len(ys)
	dst = dst[:n]
	span, half := f.span, f.half
	w, wu := f.w, f.wu
	loInterior := half
	hiInterior := n - span + half // last interior index (inclusive)
	for i := 0; i < n; i++ {
		if i < loInterior || i > hiInterior {
			lo := i - half
			hi := lo + span
			if lo < 0 {
				lo, hi = 0, span
			}
			if hi > n {
				lo, hi = n-span, n
			}
			dst[i] = refLoessPoint(ys, lo, hi, i)
			continue
		}
		win := ys[i-half : i-half+span]
		var swy, swuy float64
		for k, y := range win {
			swy += w[k] * y
			swuy += wu[k] * y
		}
		if math.Abs(f.den) < 1e-12 {
			if f.sw == 0 {
				dst[i] = ys[i]
			} else {
				dst[i] = swy / f.sw
			}
			continue
		}
		dst[i] = (swy*f.swuu - f.swu*swuy) / f.den
	}
	return dst
}

func refLoessPoint(ys []float64, lo, hi, i int) float64 {
	maxDist := math.Max(float64(i-lo), float64(hi-1-i))
	if maxDist == 0 {
		return ys[i]
	}
	var sw, swu, swy, swuu, swuy float64
	for j := lo; j < hi; j++ {
		u := float64(j - i)
		w := refTricube(math.Abs(u) / maxDist)
		sw += w
		swu += w * u
		swy += w * ys[j]
		swuu += w * u * u
		swuy += w * u * ys[j]
	}
	den := sw*swuu - swu*swu
	if math.Abs(den) < 1e-12 || sw == 0 {
		if sw == 0 {
			return ys[i]
		}
		return swy / sw
	}
	return (swy*swuu - swu*swuy) / den
}

func refTricube(d float64) float64 {
	if d >= 1 {
		return 1e-6
	}
	c := 1 - d*d*d
	return c * c * c
}

func refDecompose(ys []float64, period int, opts Options) (*Decomposition, error) {
	n := len(ys)
	if period < 2 {
		return nil, fmt.Errorf("stl: period must be >= 2, got %d", period)
	}
	if n < 2*period {
		return nil, fmt.Errorf("stl: need >= %d points for period %d, got %d", 2*period, period, n)
	}
	opts = opts.withDefaults(period)

	seasonal := make([]float64, n)
	trend := make([]float64, n)
	detrended := make([]float64, n)
	cycles := (n + period - 1) / period
	sub := make([]float64, cycles)
	smoothed := make([]float64, cycles)
	lowPass := make([]float64, n)
	maTmp := make([]float64, n)
	maPrefix := make([]float64, n+1)

	fits := map[int]*refLoessFit{}
	fitFor := func(span, n int) *refLoessFit {
		if span > n {
			span = n
		}
		if f, ok := fits[span]; ok {
			return f
		}
		f := refNewLoessFit(span)
		fits[span] = f
		return f
	}

	for iter := 0; iter < opts.InnerIterations; iter++ {
		for i := range ys {
			detrended[i] = ys[i] - trend[i]
		}
		for phase := 0; phase < period; phase++ {
			m := 0
			for i := phase; i < n; i += period {
				sub[m] = detrended[i]
				m++
			}
			if m < 2 || opts.SeasonalSpan < 2 {
				copy(smoothed[:m], sub[:m])
			} else {
				fitFor(opts.SeasonalSpan, m).into(smoothed[:m], sub[:m])
			}
			for k := 0; k < m; k++ {
				seasonal[phase+k*period] = smoothed[k]
			}
		}
		movingAverageInto(maTmp, maPrefix, seasonal, period)
		movingAverageInto(lowPass, maPrefix, maTmp, period)
		for i := range seasonal {
			seasonal[i] -= lowPass[i]
		}
		for i := range ys {
			detrended[i] = ys[i] - seasonal[i]
		}
		if opts.TrendSpan < 2 {
			copy(trend, detrended)
		} else {
			fitFor(opts.TrendSpan, n).into(trend, detrended)
		}
	}

	residual := make([]float64, n)
	for i := range ys {
		residual[i] = ys[i] - seasonal[i] - trend[i]
	}
	return &Decomposition{Seasonal: seasonal, Trend: trend, Residual: residual, Period: period}, nil
}

func refDetectPeriod(ys []float64, minLag, maxLag int, strength float64) (int, bool) {
	span := len(ys) / 4
	if span < 8 {
		span = 8
	}
	trend := refLoess(ys, span)
	detrended := make([]float64, len(ys))
	for i := range ys {
		detrended[i] = ys[i] - trend[i]
	}
	lag, corr := stats.DominantSeasonLag(detrended, minLag, maxLag)
	if lag == 0 {
		return 0, false
	}
	bound := stats.AutocorrelationSignificance(len(ys)) * strength
	if corr < bound {
		return 0, false
	}
	return lag, true
}

// sameBits reports whether got and want are the same float64s bit for bit,
// except that any NaN matches any NaN (payloads may differ).
func sameBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

type namedSeries struct {
	name string
	ys   []float64
}

// equivSeries returns the input shapes of length n the equivalence tests
// run: noise, a seasonal trend, a constant, a 1e6 offset, zeros, arbitrary
// bit patterns, and series carrying NaN and ±Inf.
func equivSeries(rng *rand.Rand, n int) []namedSeries {
	gen := func(f func(i int) float64) []float64 {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = f(i)
		}
		return ys
	}
	out := []namedSeries{
		{"noise", gen(func(int) float64 { return rng.NormFloat64() })},
		{"seasonal", seasonalSeries(rng, n, 24, 2, 0.01, 0.1)},
		{"constant", gen(func(int) float64 { return 42 })},
		{"offset", gen(func(int) float64 { return 1e6 + rng.NormFloat64()*1e-3 })},
		{"zeros", make([]float64, n)},
		{"bits", gen(func(int) float64 { return math.Float64frombits(rng.Uint64()) })},
	}
	if n > 0 {
		for _, sp := range []struct {
			name string
			v    float64
		}{{"nan", math.NaN()}, {"+inf", math.Inf(1)}, {"-inf", math.Inf(-1)}} {
			ys := gen(func(int) float64 { return rng.NormFloat64() })
			ys[rng.Intn(n)] = sp.v
			out = append(out, namedSeries{sp.name, ys})
		}
	}
	return out
}

// equivSpans are the spans exercised at length n: below 2, the smallest
// fits, even and odd, the pipeline's n/8 and n/4, and at and past n.
func equivSpans(n int) []int {
	return []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 10, 11, n / 8, n / 4, n/4 + 1, n - 1, n, n + 1}
}

func TestLoessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	lengths := []int{97, 120, 121, 135, 240, 333, 540, 541, 719, 1200}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	check := func(name string, ys []float64, span int) {
		t.Helper()
		want := refLoess(ys, span)
		got := Loess(ys, span)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s n=%d span=%d: differs at %d: got %v want %v", name, len(ys), span, i, got[i], want[i])
		}
	}
	for _, n := range lengths {
		for _, s := range equivSeries(rng, n) {
			for _, span := range equivSpans(n) {
				check(s.name, s.ys, span)
			}
		}
	}
	// Random (n, span) pairs over arbitrary values.
	for c := 0; c < 400; c++ {
		n := rng.Intn(1201)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		check("random", ys, rng.Intn(n+3)-1)
	}
}

// TestLoessScratchRowsMatchReference pins the path of spans outside the
// memo, which builds rows block by block into one recycled table: a block
// last built for a larger span or other rows must not leak into the next.
func TestLoessScratchRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, c := range []struct{ n, span int }{
		{130, 40}, {9, 9}, {80, 25}, {2, 2}, {3, 2}, {3, 3}, {5, 4}, {6, 5},
		{60, 17}, {17, 17}, {30, 8}, {31, 9}, {1500, 720}, {800, 363}, {400, 115},
	} {
		ys := seasonalSeries(rng, c.n, 12, 1, 0.02, 0.3)
		got := make([]float64, c.n)
		smoothScratch(got, ys, c.span)
		if i, ok := sameBits(got, refLoess(ys, c.span)); !ok {
			t.Fatalf("scratch n=%d span=%d differs at %d", c.n, c.span, i)
		}
	}
}

// emptyRowMemo gives the test an empty row-table memo and restores the
// package's memo afterwards, so memo policy does not depend on test order.
func emptyRowMemo(t *testing.T) {
	old := rowTables.memo.Load()
	rowTables.memo.Store(&rowMemo{})
	t.Cleanup(func() { rowTables.memo.Store(old) })
}

// TestLoessConcurrent smooths from several goroutines at once, so the
// shared row-table memo is built, published and read concurrently (run it
// under -race), spans fill the budget mid-run, and spans above the memo's
// per-span cap take the pooled scratch path side by side.
func TestLoessConcurrent(t *testing.T) {
	emptyRowMemo(t)
	ys := seasonalSeries(rand.New(rand.NewSource(19)), 1200, 60, 1, 0.01, 0.2)
	spans := []int{3, 31, 135, 300, 361, 350, 340, 330, 320, 601, 720, 900, 1200}
	want := make([][]float64, len(spans))
	for i, span := range spans {
		want[i] = refLoess(ys, span)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(spans))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range spans {
				k := (i + g) % len(spans)
				if j, ok := sameBits(Loess(ys, spans[k]), want[k]); !ok {
					errs <- fmt.Sprintf("goroutine %d span %d differs at %d", g, spans[k], j)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRowTableBudget pins the memo's policy: a span is memoized the first
// time it is met if its table is at most a quarter of the budget and still
// fits; nothing is evicted, and every other span is smoothed from scratch
// rows without touching the memo.
func TestRowTableBudget(t *testing.T) {
	emptyRowMemo(t)
	capped := 2
	for rowTableBytes(capped+1) <= rowTableBudget/4 {
		capped++
	}
	t115 := rowsFor(115)
	if t115 == nil || t115.span != 115 {
		t.Fatalf("span 115 not memoized in an empty memo")
	}
	// A span over the per-span cap (DetectPeriod's n/4 on a 2880-point
	// window) alternating with a memoized one never rebuilds the latter.
	ys := seasonalSeries(rand.New(rand.NewSource(20)), 2880, 60, 1, 0.01, 0.2)
	dst := make([]float64, len(ys))
	for i := 0; i < 3; i++ {
		LoessInto(dst, ys, 720)
		LoessInto(dst, ys, 115)
		if rowsFor(115) != t115 {
			t.Fatalf("round %d: span 115 rebuilt after span 720", i)
		}
	}
	if rowsFor(capped+1) != nil || rowTables.memo.Load().spans[720] != nil {
		t.Fatalf("spans over the per-span cap (%d) were memoized", capped)
	}
	// Fill the budget: the span that no longer fits is left to scratch, and
	// what is memoized stays.
	var memoized []int
	for span := capped; ; span-- {
		if rowsFor(span) == nil {
			if fitsMemo(rowTables.memo.Load(), rowTableBytes(span)) {
				t.Fatalf("span %d fits the budget but was not memoized", span)
			}
			break
		}
		memoized = append(memoized, span)
	}
	if len(memoized) < 3 {
		t.Fatalf("budget holds only %d capped spans, want at least 3", len(memoized))
	}
	if got := rowTables.memo.Load().bytes; got > rowTableBudget {
		t.Fatalf("memo holds %d bytes, budget %d", got, rowTableBudget)
	}
	for _, span := range append(memoized, 115) {
		if got := rowTables.memo.Load().spans[span]; got == nil || rowsFor(span) != got {
			t.Fatalf("span %d evicted or rebuilt once the budget filled", span)
		}
	}
}

// TestLoessRowsWellPosed pins what lets fit skip the reference's
// degenerate-system fallback: every row's determinant is far from zero.
// Rows depend only on (span, row), so each span checked here is checked for
// every input; wider spans only add terms to den's sum of squares.
func TestLoessRowsWellPosed(t *testing.T) {
	rows := new(loessRows)
	spans := []int{300, 540, 1200}
	for span := 2; span <= 256; span++ {
		spans = append(spans, span)
	}
	for _, span := range spans {
		rows.build(span, 0, span)
		for r, den := range rows.den {
			// 1e-6 in exact arithmetic; the reference falls back below 1e-12.
			if !(den >= 1e-7) {
				t.Fatalf("span %d row %d: den = %v, want >= 1e-7", span, r, den)
			}
		}
	}
}

func TestDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		n, period int
		opts      Options
	}{
		{540, 120, Options{}},
		{540, 60, Options{}},
		{540, 24, Options{}},
		{540, 270, Options{}},
		{48, 24, Options{}},
		{49, 24, Options{}},
		{336, 24, Options{SeasonalSpan: 1, TrendSpan: 1}},
		{300, 7, Options{InnerIterations: 3, SeasonalSpan: 4, TrendSpan: 30}},
		{1000, 96, Options{}},
		{10, 2, Options{}},
	}
	for _, c := range cases {
		for _, s := range equivSeries(rng, c.n) {
			name := s.name
			got, err := Decompose(s.ys, c.period, c.opts)
			want, werr := refDecompose(s.ys, c.period, c.opts)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s n=%d period=%d: err %v, reference err %v", name, c.n, c.period, err, werr)
			}
			if err != nil {
				continue
			}
			for part, pair := range map[string][2][]float64{
				"seasonal": {got.Seasonal, want.Seasonal},
				"trend":    {got.Trend, want.Trend},
				"residual": {got.Residual, want.Residual},
			} {
				if i, ok := sameBits(pair[0], pair[1]); !ok {
					t.Fatalf("%s n=%d period=%d: %s differs at %d", name, c.n, c.period, part, i)
				}
			}
		}
	}
}

func TestDetectPeriodMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 5, 31, 32, 100, 240, 540, 1000} {
		for _, s := range equivSeries(rng, n) {
			for _, lags := range [][2]int{{4, 400}, {2, 100}, {10, 20}} {
				gp, gok := DetectPeriod(s.ys, lags[0], lags[1], 3)
				wp, wok := refDetectPeriod(s.ys, lags[0], lags[1], 3)
				if gp != wp || gok != wok {
					t.Fatalf("%s n=%d lags=%v: got (%d, %v), reference (%d, %v)", s.name, n, lags, gp, gok, wp, wok)
				}
			}
		}
	}
}

// FuzzLoess checks Loess, and Decompose and DetectPeriod where the input
// allows, against the reference on arbitrary float64 bit patterns (8
// little-endian bytes per point).
func FuzzLoess(f *testing.F) {
	enc := func(ys ...float64) []byte {
		b := make([]byte, 8*len(ys))
		for i, y := range ys {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(y))
		}
		return b
	}
	f.Add(enc(), 3)
	f.Add(enc(1), 2)
	f.Add(enc(1, 2), 2)
	f.Add(enc(1, 5, 2, 8, 3, 9, 4), 4)
	f.Add(enc(1, 5, 2, 8, 3, 9, 4, 7, 1, 2, 3), 5)
	f.Add(enc(0, 0, 0, 0, 0, 0), 3)
	f.Add(enc(1e6, 1e6+1, 1e6-1, 1e6, 1e6+2, 1e6-2, 1e6), 6)
	f.Add(enc(1, math.NaN(), 3, 4, 5, 6, 7, 8, 9), 5)
	f.Add(enc(1, 2, math.Inf(1), 4, math.Inf(-1), 6, 7, 8), 7)
	f.Add(enc(math.MaxFloat64, -math.MaxFloat64, 5e-324, 1, 2, 3), 2)
	f.Add(enc(seasonalSeries(rand.New(rand.NewSource(1)), 64, 8, 1, 0.1, 0.1)...), 16)
	f.Fuzz(func(t *testing.T, data []byte, span int) {
		if len(data) > 8*256 {
			data = data[:8*256]
		}
		ys := make([]float64, len(data)/8)
		for i := range ys {
			ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if i, ok := sameBits(Loess(ys, span), refLoess(ys, span)); !ok {
			t.Fatalf("Loess n=%d span=%d differs at %d", len(ys), span, i)
		}
		gp, gok := DetectPeriod(ys, 2, len(ys)/2, 2)
		wp, wok := refDetectPeriod(ys, 2, len(ys)/2, 2)
		if gp != wp || gok != wok {
			t.Fatalf("DetectPeriod n=%d: got (%d, %v), reference (%d, %v)", len(ys), gp, gok, wp, wok)
		}
		period := 2 + (span&0xff)%8
		got, err := Decompose(ys, period, Options{})
		want, werr := refDecompose(ys, period, Options{})
		if (err == nil) != (werr == nil) {
			t.Fatalf("Decompose err %v, reference err %v", err, werr)
		}
		if err == nil {
			if i, ok := sameBits(got.Trend, want.Trend); !ok {
				t.Fatalf("Decompose n=%d period=%d: trend differs at %d", len(ys), period, i)
			}
			if i, ok := sameBits(got.Seasonal, want.Seasonal); !ok {
				t.Fatalf("Decompose n=%d period=%d: seasonal differs at %d", len(ys), period, i)
			}
		}
	})
}
