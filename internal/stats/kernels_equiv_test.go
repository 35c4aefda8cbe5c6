package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The scan kernels (DominantSeasonLag, the selection-based percentiles,
// TheilSen and MannKendall) are rewritten for speed but promise output
// bit-identical to their straightforward forms. The references below are
// those straightforward forms, kept only to pin that promise.

// refPercentile is the copy-and-sort percentile.
func refPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func refMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := refPercentile(xs, 50)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return refPercentile(devs, 50)
}

// refDominantSeasonLag calls Autocorrelation for every lag.
func refDominantSeasonLag(xs []float64, minLag, maxLag int) (int, float64) {
	if minLag < 1 {
		minLag = 1
	}
	if maxLag >= len(xs)/2 {
		maxLag = len(xs)/2 - 1
	}
	best, bestLag := 0.0, 0
	for l := minLag; l <= maxLag; l++ {
		c := Autocorrelation(xs, l)
		if c > best {
			best, bestLag = c, l
		}
	}
	return bestLag, best
}

// refTheilSen sorts every pairwise slope and takes the median of an
// explicit index array for the intercept.
func refTheilSen(xs []float64) (slope, intercept float64) {
	n := len(xs)
	if n < 2 {
		return 0, Mean(xs)
	}
	idxs := make([]int, 0, theilSenExactLimit)
	if n <= theilSenExactLimit {
		for i := 0; i < n; i++ {
			idxs = append(idxs, i)
		}
	} else {
		stride := float64(n-1) / float64(theilSenExactLimit-1)
		for k := 0; k < theilSenExactLimit; k++ {
			idxs = append(idxs, int(float64(k)*stride))
		}
	}
	var slopes []float64
	for a := 0; a < len(idxs)-1; a++ {
		for b := a + 1; b < len(idxs); b++ {
			i, j := idxs[a], idxs[b]
			if j == i {
				continue
			}
			slopes = append(slopes, (xs[j]-xs[i])/float64(j-i))
		}
	}
	sort.Float64s(slopes)
	slope = PercentileSorted(slopes, 50)
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	return slope, refPercentile(xs, 50) - slope*refPercentile(idx, 50)
}

// refMannKendall is the O(n^2) pair loop with a map of tie counts.
func refMannKendall(xs []float64, alpha float64) MannKendallResult {
	n := len(xs)
	if n < 4 {
		return MannKendallResult{P: 1, Trend: TrendNone}
	}
	s := 0.0
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case xs[j] > xs[i]:
				s++
			case xs[j] < xs[i]:
				s--
			}
		}
	}
	ties := map[float64]int{}
	for _, x := range xs {
		ties[x]++
	}
	nf := float64(n)
	v := nf * (nf - 1) * (2*nf + 5)
	for _, c := range ties {
		if c > 1 {
			cf := float64(c)
			v -= cf * (cf - 1) * (2*cf + 5)
		}
	}
	v /= 18
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

// sameBits reports whether a and b have identical bit patterns. Zeros of
// either sign match: an unstable sort does not fix the order of -0 and +0,
// so neither the reference nor the kernel promises which one it returns.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

var equivPercentiles = []float64{-5, 0, 1e-9, 1, 5, 10, 25, 33.3, 50, 75, 90, 95, 99, 100 - 1e-12, 100, 105}

// checkKernels compares every kernel with its reference on xs. lagPairs
// are extra (minLag, maxLag) pairs for DominantSeasonLag.
func checkKernels(t *testing.T, label string, xs []float64, lagPairs ...[2]int) {
	t.Helper()
	orig := append([]float64(nil), xs...)

	for _, p := range equivPercentiles {
		if got, want := Percentile(xs, p), refPercentile(xs, p); !sameBits(got, want) {
			t.Fatalf("%s: Percentile(p=%v) = %v (%#x), reference %v (%#x)", label, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got, want := Median(xs), refPercentile(xs, 50); !sameBits(got, want) {
		t.Fatalf("%s: Median = %v, reference %v", label, got, want)
	}
	if got, want := MAD(xs), refMAD(xs); !sameBits(got, want) {
		t.Fatalf("%s: MAD = %v, reference %v", label, got, want)
	}

	gs, gi := TheilSen(xs)
	ws, wi := refTheilSen(xs)
	if !sameBits(gs, ws) || !sameBits(gi, wi) {
		t.Fatalf("%s: TheilSen = (%v, %v), reference (%v, %v)", label, gs, gi, ws, wi)
	}

	for _, alpha := range []float64{0.05, 0.01} {
		got, want := MannKendall(xs, alpha), refMannKendall(xs, alpha)
		if !sameBits(got.S, want.S) || !sameBits(got.Z, want.Z) || !sameBits(got.P, want.P) || got.Trend != want.Trend {
			t.Fatalf("%s: MannKendall(alpha=%v) = %+v, reference %+v", label, alpha, got, want)
		}
	}

	n := len(xs)
	pairs := append([][2]int{{1, n / 2}, {2, n / 2}, {4, n}, {0, 0}, {-3, 7}, {3, 3}, {5, 2}, {n / 3, n / 3}}, lagPairs...)
	for _, pr := range pairs {
		gl, gc := DominantSeasonLag(xs, pr[0], pr[1])
		wl, wc := refDominantSeasonLag(xs, pr[0], pr[1])
		if gl != wl || !sameBits(gc, wc) {
			t.Fatalf("%s: DominantSeasonLag(%d, %d) = (%d, %v), reference (%d, %v)", label, pr[0], pr[1], gl, gc, wl, wc)
		}
	}

	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: a kernel modified its input at %d", label, i)
		}
	}
}

// equivSeries builds one seeded series of length n in the given shape.
func equivSeries(rng *rand.Rand, shape string, n int) []float64 {
	xs := make([]float64, n)
	period := 2 + rng.Intn(60)
	for i := range xs {
		switch shape {
		case "noise":
			xs[i] = rng.NormFloat64()
		case "seasonal-offset":
			xs[i] = 1e6 + 3*math.Sin(2*math.Pi*float64(i)/float64(period)) + rng.NormFloat64()*0.2
		case "trend":
			xs[i] = 0.01*float64(i) + rng.NormFloat64()
		case "ties":
			xs[i] = float64(rng.Intn(4))
		case "near-constant":
			xs[i] = 1e6
			if rng.Intn(50) == 0 {
				xs[i] = math.Nextafter(1e6, 2e6)
			}
		case "constant":
			xs[i] = 42
		case "signed-zero":
			xs[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		case "nonfinite":
			xs[i] = rng.NormFloat64()
			switch rng.Intn(40) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1)
			case 2:
				xs[i] = math.Inf(-1)
			}
		case "inf-only":
			xs[i] = rng.NormFloat64()
			if rng.Intn(30) == 0 {
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
	}
	return xs
}

var equivShapes = []string{"noise", "seasonal-offset", "trend", "ties", "near-constant", "constant", "signed-zero", "nonfinite", "inf-only"}

// TestScanKernelsBitIdentical runs every kernel against its reference on
// seeded series of every shape: all lengths up to 80 (covering n < 4 and
// the small-lag edge cases) and a spread of longer ones up to 1200, past
// Theil-Sen's 512-point subsampling limit.
func TestScanKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20240801))
	lengths := []int{}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 96, 127, 128, 255, 511, 512, 513, 540, 777, 1200)
	for _, shape := range equivShapes {
		for _, n := range lengths {
			xs := equivSeries(rng, shape, n)
			checkKernels(t, shape, xs, [2]int{rng.Intn(n + 1), rng.Intn(n + 1)})
		}
	}
}

// TestSelectRankAdversarial drives the quickselect through its sort
// fallback and through inputs that defeat a median-of-three pivot.
func TestSelectRankAdversarial(t *testing.T) {
	shapes := map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"organ-pipe": func(i, n int) float64 { return float64(min(i, n-1-i)) },
		"sawtooth":   func(i, n int) float64 { return float64(i % 7) },
		"all-equal":  func(i, n int) float64 { return 1 },
	}
	for name, f := range shapes {
		for _, n := range []int{2, 3, 10, 1000, 4097} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = f(i, n)
			}
			for _, p := range equivPercentiles {
				if got, want := Percentile(xs, p), refPercentile(xs, p); !sameBits(got, want) {
					t.Fatalf("%s n=%d: Percentile(%v) = %v, reference %v", name, n, p, got, want)
				}
			}
			for k := 0; k < n; k += 1 + n/7 {
				buf := append([]float64(nil), xs...)
				selectRank(buf, k)
				want := append([]float64(nil), xs...)
				sort.Float64s(want)
				if buf[k] != want[k] {
					t.Fatalf("%s n=%d: selectRank(%d) = %v, want %v", name, n, k, buf[k], want[k])
				}
				for i := range buf {
					if (i < k && buf[i] > buf[k]) || (i > k && buf[i] < buf[k]) {
						t.Fatalf("%s n=%d k=%d: not partitioned at %d", name, n, k, i)
					}
				}
			}
		}
	}
}

// FuzzScanKernels runs the reference comparison on fuzzed series: the
// bytes decode 8 at a time into float64s, so the fuzzer reaches NaNs,
// infinities, signed zeros, denormals and extreme magnitudes directly.
func FuzzScanKernels(f *testing.F) {
	seed := func(xs ...float64) []byte {
		out := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		}
		return out
	}
	f.Add(seed(), 2, 5)
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8), 1, 4)
	f.Add(seed(1, 1, 2, 2, 1, 1, 2, 2, 1, 1), 2, 5)
	f.Add(seed(0, math.Copysign(0, -1), 0, 1, -1, 0), 1, 3)
	f.Add(seed(3, math.NaN(), 1, math.Inf(1), math.Inf(-1), 2, 2), 1, 3)
	f.Add(seed(1e6, 1e6, math.Nextafter(1e6, 2e6), 1e6, 1e6), 0, 9)
	rng := rand.New(rand.NewSource(1))
	f.Add(seed(equivSeries(rng, "seasonal-offset", 90)...), 4, 40)
	f.Fuzz(func(t *testing.T, data []byte, minLag, maxLag int) {
		// The O(n^2) references make long inputs slow to execute and to
		// minimize; TestScanKernelsBitIdentical covers longer series and
		// Theil-Sen's subsampling.
		const maxPoints = 128
		n := min(len(data)/8, maxPoints)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkKernels(t, "fuzz", xs, [2]int{minLag % (n + 2), maxLag % (n + 2)})
	})
}
