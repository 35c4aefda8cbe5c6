// Package stl implements Seasonal and Trend decomposition using Loess
// (Cleveland et al. 1990), which FBDetect's seasonality detector uses to
// split a series into seasonal, trend, and residual components (paper
// §5.2.3 and §5.3), plus the moving-average alternative the paper compares
// against.
//
// Every Loess smooth in the package — Loess/LoessInto, Decompose's
// seasonal and trend passes, DetectPeriod's detrending — runs through one
// exact kernel. A span-point fit has span possible positions of the fitted
// point inside its window, called rows: row span/2 serves every interior
// point, and each other row serves one clamped boundary point. A row's
// tricube weights and weighted x-moments depend only on (span, row), never
// on the data or the series length, so they are built once per span and
// memoized in a package-level table bounded by rowTableBudget bytes; a span
// the memo does not hold builds the rows it needs per call, as the
// per-point fit did. A smooth from memoized rows costs two multiply-adds
// per window point for each output point: the y-sums Σw·y and Σw·u·y,
// accumulated four interior points (or four boundary rows) at a time so
// they share their loads. Every
// accumulator adds its terms in window order, exactly as a one-point-at-a-
// time fit would, so the output is bit-identical to it.
package stl

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Loess smooths ys with locally weighted linear regression using the
// tricube weight over a window of the given span (number of neighbors).
// Span is clamped to [2, len(ys)]. The returned slice has len(ys) points.
func Loess(ys []float64, span int) []float64 {
	return LoessInto(make([]float64, len(ys)), ys, span)
}

// LoessInto is Loess writing into dst (which must have len(ys) points and
// not alias ys) and returning it — the allocation-free form the
// decomposition loop uses to reuse scratch buffers across iterations.
func LoessInto(dst, ys []float64, span int) []float64 {
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
	if t := rowsFor(span); t != nil {
		t.smooth(dst, ys)
	} else {
		smoothScratch(dst, ys, span)
	}
	return dst
}

// rowTableBudget bounds the bytes the memoized row tables hold, across all
// spans. One span's table costs about 16·span² bytes (rowTableBytes): span
// 135, DetectPeriod's on a 540-point window, is 0.3 MB; span 231, a
// period-120 trend, is 0.9 MB. A span is memoized the first time it is met
// if its table is at most a quarter of the budget (span ≤ 361) and still
// fits; the memo never evicts. Every other span builds the rows it needs
// into a pooled block of blockRows rows per call (smoothScratch): one
// tricube per weight per boundary point, as the per-point fit it replaces
// paid, so a span outside the memo is no slower than before it.
const rowTableBudget = 8 << 20

// blockRows is how many boundary rows one pass over a window sums; the
// unrolled block in boundary is written for four.
const blockRows = 4

// loessRows holds rows lo … lo+len(den)-1 of one span: row r is the fit
// evaluated at offset r of a span-point window, in window coordinates
// u = k-r. Memoized tables hold every row and are immutable once published,
// shared by concurrent smooths.
type loessRows struct {
	span, lo int
	w, wu    []float64 // row r's weights and weight·u at [(r-lo)·span, (r-lo+1)·span)
	// Per-row weighted x-moments Σw·u and Σw·u² of the fit and its
	// normal-equation determinant Σw·Σw·u² − (Σw·u)², at r-lo.
	swu, swuu, den []float64
}

// rowMemo is one immutable snapshot of the memoized tables.
type rowMemo struct {
	spans map[int]*loessRows
	bytes int
}

// rowTables is the package-level memo of full row tables, keyed by span.
// Reads are a lock-free load of the current snapshot; inserts replace it
// with a copy under mu.
var rowTables struct {
	memo atomic.Pointer[rowMemo]
	mu   sync.Mutex
}

func init() { rowTables.memo.Store(&rowMemo{}) }

// scratchRows recycles the row blocks of spans outside the memo.
var scratchRows = sync.Pool{New: func() any { return new(loessRows) }}

// rowsFor returns the memoized table for span (2 ≤ span), building and
// memoizing it if it fits the budget, or nil if the span is left to
// smoothScratch. The table is built outside mu; a goroutine that loses a
// race to insert the same span uses the winner's table.
func rowsFor(span int) *loessRows {
	if t := rowTables.memo.Load().spans[span]; t != nil {
		return t
	}
	size := rowTableBytes(span)
	if size > rowTableBudget/4 || !fitsMemo(rowTables.memo.Load(), size) {
		return nil
	}
	t := new(loessRows)
	t.build(span, 0, span)
	rowTables.mu.Lock()
	defer rowTables.mu.Unlock()
	old := rowTables.memo.Load()
	if prev := old.spans[span]; prev != nil {
		return prev
	}
	if !fitsMemo(old, size) {
		return t // filled meanwhile: use this table once
	}
	m := &rowMemo{spans: make(map[int]*loessRows, len(old.spans)+1), bytes: old.bytes + size}
	maps.Copy(m.spans, old.spans)
	m.spans[span] = t
	rowTables.memo.Store(m)
	return t
}

func fitsMemo(m *rowMemo, size int) bool { return m.bytes+size <= rowTableBudget }

// rowTableBytes is the size of one span's full row table.
func rowTableBytes(span int) int {
	return 8 * (2*span*span + 3*span)
}

// grow returns s resized to n, reusing its backing array when it can.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// build fills t with rows [lo, hi) of span, reusing t's buffers when they
// are large enough. The weights and moments are the weighted-least-squares
// terms of a line fit over the window in the fitted point's coordinates,
// which is better conditioned than absolute indices for long series.
func (t *loessRows) build(span, lo, hi int) {
	rows := hi - lo
	t.span, t.lo = span, lo
	t.w = grow(t.w, rows*span)
	t.wu = grow(t.wu, rows*span)
	t.swu = grow(t.swu, rows)
	t.swuu = grow(t.swuu, rows)
	t.den = grow(t.den, rows)
	for i := 0; i < rows; i++ {
		r := lo + i
		w := t.w[i*span:][:span]
		wu := t.wu[i*span:][:span]
		maxDist := math.Max(float64(r), float64(span-1-r))
		var sw, swu, swuu float64
		for k := range w {
			u := float64(k - r)
			wk := tricube(math.Abs(u) / maxDist)
			w[k] = wk
			wu[k] = wk * u
			sw += wk
			swu += wk * u
			swuu += wk * u * u
		}
		t.swu[i], t.swuu[i] = swu, swuu
		t.den[i] = sw*swuu - swu*swu
	}
}

// row returns row r's weights and weight·u.
func (t *loessRows) row(r int) (w, wu []float64) {
	i := (r - t.lo) * t.span
	return t.w[i:][:t.span], t.wu[i:][:t.span]
}

// fit solves row r's weighted normal equations for y = a + b·u given the
// y-sums swy = Σw·y and swuy = Σw·u·y, and evaluates the line at u = 0.
// The system is never singular: den = Σᵢ<ⱼ wᵢ·wⱼ·(uᵢ−uⱼ)², and every row
// holds the fitted point (u = 0, weight 1) and a farthest point (|u| ≥ 1,
// weight 1e-6), so den ≥ 1e-6 (TestLoessRowsWellPosed).
func (t *loessRows) fit(r int, swy, swuy float64) float64 {
	i := r - t.lo
	return (swy*t.swuu[i] - t.swu[i]*swuy) / t.den[i]
}

// smooth writes the Loess fit of ys into dst (len(dst) = len(ys) ≥ span)
// from a table holding every row of its span. Point i < span/2 is row i of
// the first window; a point past the last interior one is row i-(n-span) of
// the last window; the rest are row span/2 of the window centred on them.
func (t *loessRows) smooth(dst, ys []float64) {
	n, span := len(ys), t.span
	half := span / 2
	t.boundary(dst[:half], ys[:span], 0)
	t.interior(dst[half:n-span+half+1], ys)
	t.boundary(dst[n-span+half+1:n], ys[n-span:], half+1)
}

// smoothScratch is smooth for a span outside the memo: it builds the rows
// it needs into a pooled block, blockRows at a time, and sums them with the
// same code, so it holds O(span) floats instead of a span² table.
func smoothScratch(dst, ys []float64, span int) {
	t := scratchRows.Get().(*loessRows)
	defer scratchRows.Put(t)
	n, half := len(ys), span/2
	t.build(span, half, half+1)
	t.interior(dst[half:n-span+half+1], ys)
	for lo := 0; lo < half; lo += blockRows {
		hi := min(lo+blockRows, half)
		t.build(span, lo, hi)
		t.boundary(dst[lo:hi], ys[:span], lo)
	}
	for lo := half + 1; lo < span; lo += blockRows {
		hi := min(lo+blockRows, span)
		t.build(span, lo, hi)
		t.boundary(dst[n-span+lo:n-span+hi], ys[n-span:], lo)
	}
}

// boundary fits rows r0, r0+1, … of the window win into out, blockRows
// rows at a time over a shared pass of win.
func (t *loessRows) boundary(out, win []float64, r0 int) {
	j := 0
	for ; j+blockRows <= len(out); j += blockRows {
		r := r0 + j
		w0, wu0 := t.row(r)
		w1, wu1 := t.row(r + 1)
		w2, wu2 := t.row(r + 2)
		w3, wu3 := t.row(r + 3)
		w0, wu0, w1, wu1 = w0[:len(win)], wu0[:len(win)], w1[:len(win)], wu1[:len(win)]
		w2, wu2, w3, wu3 = w2[:len(win)], wu2[:len(win)], w3[:len(win)], wu3[:len(win)]
		var s0, s1, s2, s3, p0, p1, p2, p3 float64
		for k, y := range win {
			s0 += w0[k] * y
			p0 += wu0[k] * y
			s1 += w1[k] * y
			p1 += wu1[k] * y
			s2 += w2[k] * y
			p2 += wu2[k] * y
			s3 += w3[k] * y
			p3 += wu3[k] * y
		}
		out[j] = t.fit(r, s0, p0)
		out[j+1] = t.fit(r+1, s1, p1)
		out[j+2] = t.fit(r+2, s2, p2)
		out[j+3] = t.fit(r+3, s3, p3)
	}
	for ; j < len(out); j++ {
		r := r0 + j
		w, wu := t.row(r)
		w, wu = w[:len(win)], wu[:len(win)]
		var s, p float64
		for k, y := range win {
			s += w[k] * y
			p += wu[k] * y
		}
		out[j] = t.fit(r, s, p)
	}
}

// interior fits row span/2 over every full window of ys: out[b] is the fit
// of ys[b : b+span]. Four consecutive windows share each weight load.
func (t *loessRows) interior(out, ys []float64) {
	half := t.span / 2
	w, wu := t.row(half)
	wu = wu[:len(w)]
	b := 0
	for ; b+4 <= len(out); b += 4 {
		y0 := ys[b:][:len(w)]
		y1 := ys[b+1:][:len(w)]
		y2 := ys[b+2:][:len(w)]
		y3 := ys[b+3:][:len(w)]
		var s0, s1, s2, s3, p0, p1, p2, p3 float64
		for k, wk := range w {
			uk := wu[k]
			s0 += wk * y0[k]
			p0 += uk * y0[k]
			s1 += wk * y1[k]
			p1 += uk * y1[k]
			s2 += wk * y2[k]
			p2 += uk * y2[k]
			s3 += wk * y3[k]
			p3 += uk * y3[k]
		}
		out[b] = t.fit(half, s0, p0)
		out[b+1] = t.fit(half, s1, p1)
		out[b+2] = t.fit(half, s2, p2)
		out[b+3] = t.fit(half, s3, p3)
	}
	for ; b < len(out); b++ {
		y0 := ys[b:][:len(w)]
		var s, p float64
		for k, wk := range w {
			s += wk * y0[k]
			p += wu[k] * y0[k]
		}
		out[b] = t.fit(half, s, p)
	}
}

func tricube(d float64) float64 {
	if d >= 1 {
		// Keep a tiny positive weight at the window edge so degenerate
		// two-point windows still have mass.
		return 1e-6
	}
	c := 1 - d*d*d
	return c * c * c
}

// MovingAverage returns the centered moving average of ys with the given
// window (clamped to [1, len(ys)]), the alternative seasonality handler the
// paper evaluated and rejected in favour of STL.
func MovingAverage(ys []float64, window int) []float64 {
	n := len(ys)
	if n == 0 {
		return []float64{}
	}
	return movingAverageInto(make([]float64, n), make([]float64, n+1), ys, window)
}

// movingAverageInto is MovingAverage writing into dst with a caller-owned
// prefix-sum scratch buffer (len(ys)+1), so the decomposition loop's
// low-pass filter allocates nothing per iteration.
func movingAverageInto(dst, prefix, ys []float64, window int) []float64 {
	n := len(ys)
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if window < 1 {
		window = 1
	}
	if window > n {
		window = n
	}
	half := window / 2
	// Prefix sums for O(n).
	prefix = prefix[:n+1]
	prefix[0] = 0
	for i, y := range ys {
		prefix[i+1] = prefix[i] + y
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + (window - half)
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		dst[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return dst
}
