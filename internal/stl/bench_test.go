package stl

import (
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

func BenchmarkDecompose1k(b *testing.B) {
	ys := benchSeasonal(1000, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(ys, 96, Options{}); err != nil {
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
