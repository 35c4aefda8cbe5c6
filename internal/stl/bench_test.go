package stl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func benchSeasonal(n, period int) []float64 {
	rng := rand.New(rand.NewSource(1))
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = 10 + 2*math.Sin(2*math.Pi*float64(i)/float64(period)) + rng.NormFloat64()*0.1
	}
	return ys
}

func BenchmarkLoess1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Loess(ys, 101)
	}
}

// BenchmarkLoess540 smooths a 9h/540-point window at the two spans the
// pipeline uses on it: n/4 = 135 (DetectPeriod's detrending) and n/8 = 67
// (the long-term path's fallback trend).
func BenchmarkLoess540(b *testing.B) {
	ys := benchSeasonal(540, 120)
	for _, span := range []int{135, 67} {
		b.Run(fmt.Sprintf("span%d", span), func(b *testing.B) {
			dst := make([]float64, len(ys))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				LoessInto(dst, ys, span)
			}
		})
	}
}

func BenchmarkDecompose1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(ys, 96, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoessOutsideMemo smooths at span 720 (DetectPeriod's n/4 on a
// 2880-point window), whose row table is over the memo's per-span cap, so
// every call builds its rows per call.
func BenchmarkLoessOutsideMemo(b *testing.B) {
	ys := benchSeasonal(2880, 120)
	dst := make([]float64, len(ys))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LoessInto(dst, ys, 720)
	}
}

// BenchmarkDecompose540 is the seasonality detector's decomposition of a
// 540-point window at period 120 (trend span 231).
func BenchmarkDecompose540(b *testing.B) {
	ys := benchSeasonal(540, 120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(ys, 120, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectPeriod1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DetectPeriod(ys, 4, 400, 3)
	}
}

// BenchmarkDetectPeriod540 is period detection over a 540-point window at
// the seasonality detector's default bounds (lags 4..400, strength 3).
func BenchmarkDetectPeriod540(b *testing.B) {
	ys := benchSeasonal(540, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPeriod, _ = DetectPeriod(ys, 4, 400, 3)
	}
}

var sinkPeriod int
