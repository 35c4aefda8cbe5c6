package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"fbdetect/internal/stats"
	"fbdetect/internal/stl"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// The seasonality and long-term detectors both start from the same
// expensive computation: detect a seasonal period over the full window and,
// if seasonal, run an STL decomposition (O(n·span) Loess passes). Under
// continuous scanning the same series is decomposed again and again —
// twice per scan when both paths are enabled, and once per re-run even
// when nothing changed. The tsdb's per-series epoch makes that redundancy
// detectable: stored values are never rewritten under an epoch, so a
// (metric, epoch, window) triple pins the exact input values — and unlike
// the mutation-counting version, the epoch survives appends, so a cached
// window stays warm while the series grows past it. This is the
// amortization Hunter and MongoDB's change-point system apply across
// overlapping scan windows.

// stlKey identifies one memoizable decomposition input: the metric, the
// series epoch at read time, and the window cut from it (start nanos +
// point count).
type stlKey struct {
	metric tsdb.MetricID
	epoch  uint64
	start  int64
	n      int
}

// stlResult carries everything the two detectors derive from one full
// window's decomposition. Entries are immutable after construction; the
// slices are shared and must be treated as read-only.
type stlResult struct {
	// Period detection (always set).
	period   int
	seasonal bool
	// Decomposition, set when the series is seasonal with enough data and
	// STL succeeded.
	decomp *stl.Decomposition
	des    []float64 // decomp.Deseasonalized(), computed once
	resSD  float64   // stats.StdDev(decomp.Residual)
	// Long-term fallback trend (wide Loess), set at construction when the
	// pipeline runs the long-term path and no decomposition trend exists.
	loessTrend []float64
}

// trend returns the series trend: the STL trend when decomposed, otherwise
// the Loess fallback (nil when neither was computed).
func (r *stlResult) trend() []float64 {
	if r.decomp != nil {
		return r.decomp.Trend
	}
	return r.loessTrend
}

// computeSTL runs the shared decomposition work for one full window:
// period detection, STL decomposition when seasonal, and — when needTrend
// is set (the pipeline's long-term path is enabled) and no decomposition
// trend exists — the wide-Loess fallback trend.
func computeSTL(scfg SeasonalityConfig, full *timeseries.Series, needTrend bool) *stlResult {
	n := full.Len()
	res := &stlResult{}
	res.period, res.seasonal = stl.DetectPeriod(full.Values, scfg.MinPeriod, scfg.MaxPeriod, scfg.Strength)
	if res.seasonal && n >= 2*res.period {
		if d, err := stl.Decompose(full.Values, res.period, stl.Options{}); err == nil {
			res.decomp = d
			res.des = d.Deseasonalized()
			res.resSD = stats.StdDev(d.Residual)
		}
	}
	if needTrend && res.decomp == nil && n >= longTermMinPoints {
		span := n / 8
		if span < 5 {
			span = 5
		}
		res.loessTrend = stl.Loess(full.Values, span)
	}
	return res
}

// defaultSTLCacheSize bounds the cache when Config.STLCacheSize is unset.
// Entries hold a few decomposition-length slices (~20KB at 500-point
// windows), so the default costs tens of MB at worst.
const defaultSTLCacheSize = 1024

// stlCache is a concurrency-safe LRU of stlResults. A nil *stlCache is a
// valid always-miss cache (caching disabled).
type stlCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *stlNode
	items map[stlKey]*list.Element

	hits, misses atomic.Uint64
}

type stlNode struct {
	key stlKey
	res *stlResult
}

func newSTLCache(max int) *stlCache {
	return &stlCache{
		max:   max,
		ll:    list.New(),
		items: make(map[stlKey]*list.Element),
	}
}

// get returns the cached result for k, or nil on a miss.
func (c *stlCache) get(k stlKey) *stlResult {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*stlNode).res
}

// put stores r under k, evicting the least recently used entry when full.
func (c *stlCache) put(k stlKey, r *stlResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*stlNode).res = r
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&stlNode{key: k, res: r})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*stlNode).key)
	}
}

// stats returns the cumulative hit/miss counts (zero for a nil cache).
func (c *stlCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// size returns the current entry count.
func (c *stlCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// STLCacheStats reports the pipeline's decomposition-cache hit/miss
// counts and current entry count — the numbers the /metrics counters
// export, available here for uninstrumented pipelines too.
func (p *Pipeline) STLCacheStats() (hits, misses uint64, entries int) {
	hits, misses = p.stlCache.stats()
	return hits, misses, p.stlCache.size()
}

// stlFor returns the decomposition-derived results for one metric's full
// window, consulting the epoch-keyed cache. With caching disabled every
// call recomputes, matching the uncached detectors exactly — the cache is
// a pure memoization, so detection output is identical either way.
func (p *Pipeline) stlFor(metric tsdb.MetricID, epoch uint64, full *timeseries.Series) *stlResult {
	key := stlKey{metric: metric, epoch: epoch, start: full.Start.UnixNano(), n: full.Len()}
	if r := p.stlCache.get(key); r != nil {
		p.obs.stlCacheLookup(true)
		return r
	}
	if p.stlCache != nil {
		p.obs.stlCacheLookup(false)
	}
	r := computeSTL(p.cfg.Seasonality, full, p.cfg.LongTerm)
	p.stlCache.put(key, r)
	return r
}
