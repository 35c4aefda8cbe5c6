package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fbdetect/internal/distributed"
	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// span is one timed call the benchmark made: a tick, or a public call
// within it. Spans of one tick share its number; times are nanoseconds
// since the timed window opened.
type span struct {
	Name   string `json:"name"`
	Tick   int    `json:"tick"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one client goroutine. A nil tracer, the
// untraced run's, records nothing.
type tracer struct {
	base  time.Time
	conn  int64
	spans []span
}

func (t *tracer) begin(name string, tick int, parent int64) int64 {
	if t == nil {
		return 0
	}
	id := t.conn<<32 | int64(len(t.spans)+1)
	t.spans = append(t.spans, span{Name: name, Tick: tick, ID: id, Parent: parent, Start: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	t.spans[id&0xffffffff-1].End = int64(time.Since(t.base))
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Inputs kept from a traced run for the layer replay; bounded so the
// replay stays a small share of the run.
const (
	keepBodies   = 300
	keepProfiles = 200
	keepBatches  = 2000
)

type keptProfile struct {
	tenant int
	body   []byte
}

// recorder keeps the inputs a traced run sent. A nil recorder keeps
// nothing.
type recorder struct {
	bodies   [][]byte
	profiles []keptProfile
	batches  [][]tsdb.Point
}

func (r *recorder) ingest(b []byte) {
	if r != nil && len(r.bodies) < keepBodies {
		r.bodies = append(r.bodies, bytes.Clone(b))
	}
}

func (r *recorder) profile(t int, b []byte) {
	if r != nil && len(r.profiles) < keepProfiles {
		r.profiles = append(r.profiles, keptProfile{tenant: t, body: b})
	}
}

func (r *recorder) points(pts []tsdb.Point) {
	if r != nil && len(r.batches) < keepBatches {
		r.batches = append(r.batches, append([]tsdb.Point(nil), pts...))
	}
}

// regSnapshot flattens an obs registry: counters and gauges by name and
// labels, histograms as their sum and count.
type regSnapshot map[string]float64

func snapshotRegistry(reg *obs.Registry) regSnapshot {
	out := regSnapshot{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			key := f.Name + labelKey(s.Labels)
			if s.Histogram != nil {
				out[key+":sum"] = s.Histogram.Sum
				out[key+":count"] = float64(s.Histogram.Count)
				continue
			}
			out[key] = s.Value
		}
	}
	return out
}

func labelKey(l obs.Labels) string {
	if len(l) == 0 {
		return ""
	}
	parts := make([]string, 0, len(l))
	for k, v := range l {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// registryDelta is the change of a registry over the timed window.
type registryDelta struct{ before, after regSnapshot }

func (d registryDelta) get(key string) float64 { return d.after[key] - d.before[key] }

// mean is a histogram's mean over the window (0 without observations).
func (d registryDelta) mean(key string) float64 {
	return ratio(d.get(key+":sum"), d.get(key+":count"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memCounts reads the cumulative allocated bytes and allocation count.
func memCounts() (bytes, allocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// timingStore is the durable store the server uses, with the WAL append
// and the DB append timed separately.
type timingStore struct {
	s              *wal.Store
	logT, dbT      time.Duration
	batches, point int
}

func (t *timingStore) AppendBatch(pts []tsdb.Point) (int, error) {
	t1 := time.Now()
	if err := t.s.Log.Append(pts); err != nil {
		return 0, err
	}
	t2 := time.Now()
	n, err := t.s.DB.AppendBatch(pts)
	t.dbT += time.Since(t2)
	t.logT += t2.Sub(t1)
	t.batches++
	t.point += len(pts)
	return n, err
}

func openTimingStore(dir string) (*timingStore, error) {
	s, err := wal.OpenStore(dir, time.Minute, wal.Options{}, tsdb.Options{}, nil)
	if err != nil {
		return nil, err
	}
	return &timingStore{s: s}, nil
}

// ingestReplay is the bare /ingest handler's cost on recorded bodies.
type ingestReplay struct {
	batches, points  int
	handler, log, db time.Duration
	allocBytes       uint64
}

// replayIngest serves the recorded NDJSON bodies through a bare
// distributed.IngestHandler over a fresh WAL-backed store.
func replayIngest(dir string, bodies [][]byte, chk *checker) (ingestReplay, error) {
	var r ingestReplay
	if len(bodies) == 0 {
		return r, nil
	}
	ts, err := openTimingStore(dir)
	if err != nil {
		return r, err
	}
	defer ts.s.Close()
	h := distributed.NewIngestHandler(ts, distributed.IngestOptions{})
	reqs := make([]*httptest.ResponseRecorder, len(bodies))
	for i := range reqs {
		reqs[i] = httptest.NewRecorder()
	}
	b0, _ := memCounts()
	for i, b := range bodies {
		req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(b))
		start := time.Now()
		h.ServeHTTP(reqs[i], req)
		r.handler += time.Since(start)
		chk.expect(reqs[i].Code == 200, "replayed /ingest: status %d", reqs[i].Code)
	}
	b1, _ := memCounts()
	r.batches, r.points = ts.batches, ts.point
	r.log, r.db = ts.logT, ts.dbT
	r.allocBytes = b1 - b0
	return r, nil
}

// profileReplay is the bare /profiles handler's and the parser's cost on
// recorded profiles.
type profileReplay struct {
	n                   int
	handler, parse, str time.Duration
	parseAllocs         uint64
}

func replayProfiles(dir string, profs []keptProfile, chk *checker) (profileReplay, error) {
	var r profileReplay
	if len(profs) == 0 {
		return r, nil
	}
	ts, err := openTimingStore(dir)
	if err != nil {
		return r, err
	}
	defer ts.s.Close()
	h := distributed.NewProfilesHandler(ts, distributed.ProfilesOptions{})
	for _, p := range profs {
		req := httptest.NewRequest("POST", fmt.Sprintf("/profiles?service=prof%d", p.tenant), bytes.NewReader(p.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		r.handler += time.Since(start)
		chk.expect(rec.Code == 200, "replayed /profiles: status %d", rec.Code)
	}
	r.str = ts.logT + ts.dbT
	_, a0 := memCounts()
	for _, p := range profs {
		start := time.Now()
		_, err := pprofparse.Parse(p.body)
		r.parse += time.Since(start)
		chk.expect(err == nil, "replayed pprofparse.Parse: %v", err)
	}
	_, a1 := memCounts()
	r.parseAllocs = a1 - a0
	r.n = len(profs)
	return r, nil
}

// replayAppendNs appends recorded batches to a fresh in-memory DB and
// returns the nanoseconds per point.
func replayAppendNs(batches [][]tsdb.Point) float64 {
	db := tsdb.New(time.Minute)
	var d time.Duration
	n := 0
	for _, b := range batches {
		start := time.Now()
		db.AppendBatch(b)
		d += time.Since(start)
		n += len(b)
	}
	return ratio(float64(d), float64(n))
}

// decodePerWindow reads the scan window ending at minute end of every
// listed series through QueryViewStamped and returns the time per read.
func decodePerWindow(db *tsdb.DB, ids []tsdb.MetricID, end int, chk *checker) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	var sc tsdb.Scratch
	to := minuteTime(end)
	from := to.Add(-windowSpan)
	start := time.Now()
	for _, id := range ids {
		s, _, err := db.QueryViewStamped(id, from, to, &sc)
		if err != nil || s.Len() == 0 {
			chk.failf("QueryViewStamped %s: %v", id, err)
		}
	}
	return time.Since(start) / time.Duration(len(ids))
}

// coreLayers fills the detection-pipeline metrics from the registry
// delta; scanSum is the registry key of the histogram whose sum is the
// time spent scanning.
func coreLayers(L map[string]float64, d registryDelta, scanSum string) {
	slides := d.get("fbdetect_pipeline_metrics_scanned_total")
	stageUS := func(stages ...string) float64 {
		s := 0.0
		for _, st := range stages {
			s += d.get("fbdetect_stage_duration_seconds{stage=" + st + "}:sum")
		}
		return ratio(s*1e6, slides)
	}
	L["core.scan_ms_per_metric"] = ratio(d.get(scanSum)*1e3, slides)
	L["core.changepoint_us"] = stageUS("changepoint")
	L["core.wentaway_us"] = stageUS("wentaway")
	L["core.seasonality_us"] = stageUS("seasonality")
	L["core.longterm_us"] = stageUS("longterm")
	L["core.finalize_us"] = stageUS("threshold", "same_merger", "som_dedup", "popshift", "costshift", "pairwise", "rootcause")
	cps := d.get("fbdetect_stage_out_total{stage=changepoint}")
	L["core.changepoints_per_slide"] = ratio(cps, slides)
	L["core.wentaway_keep_ratio"] = ratio(d.get("fbdetect_stage_out_total{stage=wentaway}"), cps)
	L["core.candidates_per_slide"] = ratio(d.get("fbdetect_stage_in_total{stage=threshold}"), slides)
	hits, miss := d.get("fbdetect_checkpoint_hits_total"), d.get("fbdetect_checkpoint_misses_total")
	L["core.checkpoint_hit_ratio"] = ratio(hits, hits+miss)
	hits, miss = d.get("fbdetect_stl_cache_hits_total"), d.get("fbdetect_stl_cache_misses_total")
	L["core.stl_cache_hit_ratio"] = ratio(hits, hits+miss)
	L["tsdb.view_points_per_slide"] = ratio(d.get("fbdetect_tsdb_view_points_total"), slides)
}

// newLayers returns every per-layer metric at 0: a layer a workload does
// not exercise reports 0.
func newLayers() map[string]float64 {
	L := map[string]float64{}
	for _, l := range perLayer {
		L[l.name] = 0
	}
	return L
}

// runtimeLayers fills the generator and Go runtime metrics.
func runtimeLayers(L map[string]float64, m *measurement) {
	cpu := m.cpu.Seconds()
	L["loadgen.cpu_share"] = ratio(m.loadgen.Seconds(), cpu)
	L["runtime.gc_cpu_share"] = ratio(m.runtime[1].gcCPU-m.runtime[0].gcCPU, cpu)
	L["runtime.alloc_bytes_per_pt"] = ratio(m.runtime[1].allocBytes-m.runtime[0].allocBytes, float64(m.points))
	L["tsdb.bytes_per_point"] = m.bytesPerPoint
}

// serverLayers computes the per-layer metrics of a traced server run:
// registry deltas over the timed window, plus replays of the recorded
// inputs through each layer's entry point in isolation.
func serverLayers(w *workload, m *measurement, env *serverEnv, o opts, chk *checker) (map[string]float64, error) {
	L := newLayers()
	d := m.reg
	route := func(r string) string { return "fbdetect_http_request_duration_seconds{route=" + r + "}" }
	ingestRoute := d.mean(route("/ingest"))
	scanRoute := d.mean(route("/scan"))
	L["http.ingest_overhead_us"] = mean(m.ingest)*1e3 - ingestRoute*1e6
	L["http.scan_overhead_ms"] = mean(m.scan) - scanRoute*1e3
	L["distributed.worker_scan_ms"] = d.mean("fbdetect_worker_scan_duration_seconds") * 1e3
	L["wal.records_per_fsync"] = ratio(d.get("fbdetect_wal_appended_records_total"), d.get("fbdetect_wal_fsyncs_total"))
	L["wal.bytes_per_point"] = ratio(d.get("fbdetect_wal_appended_bytes_total"), d.get("fbdetect_wal_appended_points_total"))
	coreLayers(L, d, "fbdetect_worker_scan_duration_seconds:sum")
	L["core.sweep_cpu_util"] = ratio(m.cpu.Seconds(), m.wall*float64(runtime.GOMAXPROCS(0)))
	runtimeLayers(L, m)

	var bodies [][]byte
	var profs []keptProfile
	for _, r := range m.keep {
		bodies = append(bodies, r.bodies...)
		profs = append(profs, r.profiles...)
	}
	ir, err := replayIngest(filepath.Join(o.work, "replay-ingest"), bodies, chk)
	if err != nil {
		return nil, err
	}
	if ir.batches > 0 {
		bare := ir.handler.Seconds() / float64(ir.batches)
		L["controlplane.ingest_overhead_us_per_batch"] = (ingestRoute - bare) * 1e6
		L["distributed.ingest_decode_ns_per_pt"] = float64(ir.handler-ir.log-ir.db) / float64(ir.points)
		L["distributed.ingest_alloc_bytes_per_pt"] = float64(ir.allocBytes) / float64(ir.points)
		L["wal.append_us_per_batch"] = float64(ir.log) / 1e3 / float64(ir.batches)
		L["tsdb.append_ns_per_pt"] = float64(ir.db) / float64(ir.points)
	}
	pr, err := replayProfiles(filepath.Join(o.work, "replay-profiles"), profs, chk)
	if err != nil {
		return nil, err
	}
	if pr.n > 0 {
		n := float64(pr.n)
		L["distributed.profile_fold_ms"] = ms(pr.handler-pr.parse-pr.str) / n
		L["pprofparse.parse_ms_per_profile"] = ms(pr.parse) / n
		L["pprofparse.allocs_per_profile"] = float64(pr.parseAllocs) / n
	}

	// The control plane stores a tenant's series under the service
	// "<tenant ID>:<service>".
	db := env.srv.Store().DB
	var ids []tsdb.MetricID
	for t, tid := range env.ids {
		for _, gs := range w.tenantServices(t, false) {
			ids = append(ids, db.Metrics(tid+":"+w.services[gs].Name)...)
		}
	}
	L["tsdb.decode_us_per_window"] = float64(decodePerWindow(db, ids, w.shape.History+m.minutes, chk)) / 1e3
	return L, nil
}

// monitorLayers computes the per-layer metrics of a traced library run.
func monitorLayers(w *workload, m *measurement, env *monitorEnv, chk *checker) map[string]float64 {
	L := newLayers()
	coreLayers(L, m.reg, "fbdetect_scan_cycle_duration_seconds:sum")
	L["core.sweep_cpu_util"] = ratio(m.sweepCPU.Seconds(), m.sweepWall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	runtimeLayers(L, m)
	var batches [][]tsdb.Point
	for _, r := range m.keep {
		batches = append(batches, r.batches...)
	}
	L["tsdb.append_ns_per_pt"] = replayAppendNs(batches)
	var ids []tsdb.MetricID
	for _, s := range w.services {
		ids = append(ids, env.db.Metrics(s.Name)...)
	}
	L["tsdb.decode_us_per_window"] = float64(decodePerWindow(env.db, ids, w.shape.History+m.minutes, chk)) / 1e3
	return L
}
