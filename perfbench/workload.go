package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"fbdetect/internal/pprofparse"
	"fbdetect/internal/tsdb"
)

// t0 is minute zero of every workload's virtual timeline. Points sit on a
// one-minute grid, the step the control plane's store uses.
var t0 = time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)

func minuteTime(m int) time.Time { return t0.Add(time.Duration(m) * time.Minute) }

// shape fixes one workload's size and timeline. Minutes count from t0.
type shape struct {
	Tenants int
	// Each tenant has ServicesPerTenant scanned services of
	// SeriesPerService series: they get history, injected events and
	// scans.
	ServicesPerTenant int
	SeriesPerService  int
	// Each tenant also has WriteServices write-only services of
	// WriteSeries series: written every tick from History on, never
	// scanned.
	WriteServices, WriteSeries int
	// History is the number of minutes of the scanned services loaded
	// during set-up.
	History int
	// Horizon ends the deterministic part of a run: every run slides up
	// to it, and detection is scored only on scans at or before it, so
	// detection counts do not depend on machine speed.
	Horizon int
	// MaxMinutes caps how far a run keeps sliding past Horizon while its
	// measuring time lasts.
	MaxMinutes int
	// Onsets of injected steps and spikes fall in [InjectFrom, InjectTo).
	InjectFrom, InjectTo int
	// StepShare and SpikeShare are the shares of each service's series
	// that get a lasting step or a transient spike.
	StepShare, SpikeShare float64
	// Season is the relative amplitude of the 120-minute seasonality.
	Season float64
	// ProfileFuncs > 0 adds one gzipped pprof upload per tenant per
	// minute, from a call tree of that many distinct functions.
	ProfileFuncs int
}

const (
	seasonPeriod = 120.0 // minutes
	noiseShare   = 0.01  // 1% multiplicative noise
	metricName   = "gcpu"
)

// event is an injected change on one series: a lasting step when Len is
// 0, a spike of Len minutes otherwise.
type event struct {
	At, Len int
	Delta   float64
}

type series struct {
	Service int // global service index
	ID      tsdb.MetricID
	Base    float64
	Phase   float64
	Step    *event
	Spike   *event
}

type service struct {
	Tenant int
	Name   string // as the tenant sees it
	Series []int  // indices into workload.series
	Write  bool   // write-only: no history, no events, no scans
}

type profLeaf struct {
	stack  []string // root first
	weight float64
}

// workload is the seeded ground truth of one run: every series, every
// injected event and every request body derive from (shape, seed) alone.
type workload struct {
	name     string
	shape    shape
	seed     int64
	series   []series
	services []service
	byID     map[string]int // tenant-visible metric ID -> series index
	// profile call trees, one per tenant, and the entity names the
	// profile handler derives from them
	profLeaves  [][]profLeaf
	profService []string
	profEntity  map[string]bool
}

func newWorkload(name string, sh shape, seed int64) *workload {
	w := &workload{name: name, shape: sh, seed: seed, byID: map[string]int{}}
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < sh.Tenants; t++ {
		for s := 0; s < sh.ServicesPerTenant+sh.WriteServices; s++ {
			svc := service{Tenant: t, Name: fmt.Sprintf("svc%dq%d", t, s)}
			n := sh.SeriesPerService
			if s >= sh.ServicesPerTenant {
				svc.Name = fmt.Sprintf("wr%dq%d", t, s)
				svc.Write, n = true, sh.WriteSeries
			}
			gs := len(w.services)
			for k := 0; k < n; k++ {
				g := len(w.series)
				// Three tokens unique to the series keep the pairwise
				// deduper's text similarity between two true steps low,
				// so it never merges them.
				entity := fmt.Sprintf("op%d.site%d.unit%d", g, g, g)
				w.series = append(w.series, series{
					Service: gs,
					ID:      tsdb.ID(svc.Name, entity, metricName),
					Base:    0.02 + 0.02*rng.Float64(),
					Phase:   2 * math.Pi * rng.Float64(),
				})
				svc.Series = append(svc.Series, g)
				w.byID[string(w.series[g].ID)] = g
			}
			w.services = append(w.services, svc)
		}
	}
	for gs := range w.services {
		if !w.services[gs].Write {
			w.inject(rng, gs, len(w.services))
		}
	}
	if sh.ProfileFuncs > 0 {
		w.profEntity = map[string]bool{}
		for t := 0; t < sh.Tenants; t++ {
			w.profService = append(w.profService, fmt.Sprintf("prof%d", t))
			w.profLeaves = append(w.profLeaves, callTree(rng, sh.ProfileFuncs, w.profEntity))
		}
	}
	return w
}

// inject gives one service its steps and spikes. Steps are staggered
// one per service at a time, each in its own slot of the injection
// range; services are offset within a slot so onsets spread over the
// run. Spikes sit half a slot after each step, on other series.
func (w *workload) inject(rng *rand.Rand, gs, nsvc int) {
	sh := w.shape
	idx := w.services[gs].Series
	nStep := max(1, int(math.Round(sh.StepShare*float64(len(idx)))))
	nSpike := max(1, int(math.Round(sh.SpikeShare*float64(len(idx)))))
	perm := rng.Perm(len(idx))
	slot := (sh.InjectTo - sh.InjectFrom) / nStep
	off := gs * slot * 3 / (4 * nsvc)
	for i := 0; i < nStep; i++ {
		s := &w.series[idx[perm[i]]]
		at := sh.InjectFrom + i*slot + off + rng.Intn(max(1, slot/4))
		s.Step = &event{At: at, Delta: s.Base * (0.15 + 0.1*rng.Float64())}
	}
	for i := 0; i < nSpike; i++ {
		s := &w.series[idx[perm[nStep+i]]]
		at := sh.InjectFrom + (i%nStep)*slot + off + slot/2 + rng.Intn(max(1, slot/8))
		s.Spike = &event{At: at, Len: 15 + rng.Intn(16), Delta: s.Base * (0.15 + 0.1*rng.Float64())}
	}
}

// callTree builds a three-level call tree of n distinct functions: one
// root, nine stages, and leaves spread over the stages with seeded
// weights. It records the entity name the profile handler will store for
// each function in entities.
func callTree(rng *rand.Rand, n int, entities map[string]bool) []profLeaf {
	const stages = 9
	root := "main.serve"
	entities[pprofparse.NormalizeFrame(root).Subroutine] = true
	var leaves []profLeaf
	total := 0.0
	for k := 0; k < n-1-stages; k++ {
		stage := fmt.Sprintf("main.stage%02d", k%stages)
		leaf := fmt.Sprintf("main.leaf%02dk%03d", k%stages, k)
		wgt := 0.2 + rng.Float64()
		total += wgt
		leaves = append(leaves, profLeaf{stack: []string{root, stage, leaf}, weight: wgt})
		entities[pprofparse.NormalizeFrame(stage).Subroutine] = true
		entities[pprofparse.NormalizeFrame(leaf).Subroutine] = true
	}
	for i := range leaves {
		leaves[i].weight /= total
	}
	return leaves
}

// splitmix64 is the finaliser of the SplitMix64 generator: a cheap,
// well-mixed hash that lets any (series, minute) value be computed
// directly, in any order.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// gauss is a standard normal draw keyed by (seed, stream, i, m).
func gauss(seed int64, stream uint64, i, m int) float64 {
	h := splitmix64(uint64(seed) ^ splitmix64(stream<<48^uint64(i)<<24^uint64(m)))
	u1 := (float64(h>>11) + 0.5) / (1 << 53)
	u2 := float64(splitmix64(h)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// value is series i at minute m, rounded to the 1e-6 grid sampled gCPU
// lives on.
func (w *workload) value(i, m int) float64 {
	s := &w.series[i]
	season := 1 + w.shape.Season*math.Sin(2*math.Pi*float64(m)/seasonPeriod+s.Phase)
	v := s.Base * season * (1 + noiseShare*gauss(w.seed, 1, i, m))
	if e := s.Step; e != nil && m >= e.At {
		v += e.Delta
	}
	if e := s.Spike; e != nil && m >= e.At && m < e.At+e.Len {
		v += e.Delta
	}
	return math.Round(v*1e6) / 1e6
}

// points appends service gs's points for minutes [from, to).
func (w *workload) points(dst []tsdb.Point, gs, from, to int) []tsdb.Point {
	for m := from; m < to; m++ {
		t := minuteTime(m)
		for _, i := range w.services[gs].Series {
			dst = append(dst, tsdb.Point{ID: w.series[i].ID, T: t, V: w.value(i, m)})
		}
	}
	return dst
}

// ndjson appends service gs's points for minutes [from, to) in the
// /ingest wire format, one JSON object per line. Metric IDs hold only
// letters, digits, '.' and '/', so nothing needs escaping.
func (w *workload) ndjson(dst []byte, gs, from, to int) []byte {
	for m := from; m < to; m++ {
		ts := minuteTime(m).Format(time.RFC3339)
		for _, i := range w.services[gs].Series {
			dst = append(dst, `{"metric":"`...)
			dst = append(dst, w.series[i].ID...)
			dst = append(dst, `","time":"`...)
			dst = append(dst, ts...)
			dst = append(dst, `","value":`...)
			dst = strconv.AppendFloat(dst, w.value(i, m), 'g', -1, 64)
			dst = append(dst, "}\n"...)
		}
	}
	return dst
}

// profile is tenant t's gzipped pprof CPU profile for minute m: one
// sample per leaf, weighted by the leaf's share with 1% noise.
func (w *workload) profile(t, m int) []byte {
	b := pprofparse.NewBuilder("cpu", "nanoseconds")
	b.SetPeriod(10_000_000)
	b.SetTimeNanos(minuteTime(m).UnixNano())
	for k, l := range w.profLeaves[t] {
		v := l.weight * 60e9 * (1 + noiseShare*gauss(w.seed, 2+uint64(t), k, m))
		b.Add(l.stack, int64(v))
	}
	return b.Profile().MarshalGzip()
}

// tenantServices lists the global service indices of tenant t: its
// scanned services, or with write its write-only ones too.
func (w *workload) tenantServices(t int, write bool) []int {
	var out []int
	for gs, s := range w.services {
		if s.Tenant == t && (write || !s.Write) {
			out = append(out, gs)
		}
	}
	return out
}

// knownMetric reports whether a tenant-visible metric ID names a series
// this workload writes: an NDJSON series or a profile-derived one.
func (w *workload) knownMetric(id string) bool {
	if _, ok := w.byID[id]; ok {
		return true
	}
	svc, entity, name := tsdb.MetricID(id).Parts()
	if name != metricName || !w.profEntity[entity] {
		return false
	}
	for _, ps := range w.profService {
		if ps == svc {
			return true
		}
	}
	return false
}
