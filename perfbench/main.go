// Command perfbench is the repository's end-to-end benchmark. It drives
// the real system from outside with a seeded workload and prints every
// metric by name and unit, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload steady-slide --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - steady-slide: the control plane (controlplane.NewServer behind a
//     loopback HTTP server) in continuous operation. Each tick every series
//     gains one point through /ingest and every service is rescanned
//     through /scan, so every window slides and detector checkpoints miss.
//   - ingest-mix: the control plane under write-heavy load: per tenant
//     per minute one NDJSON batch of ~1100 points and one gzipped pprof
//     upload. Each tenant also has one scanned service whose 9h history
//     is loaded at set-up; it is rescanned every few minutes, so reads
//     run beside the writes. The write-only series are never scanned:
//     filling their windows would take most of a run.
//   - sweep-longterm: the library Monitor (cmd/fbdetect -watch) over a
//     DB with the long-term path on; each tick one DB.AppendBatch per
//     service and one Monitor.ScanOnce. No HTTP, no WAL.
//
// Every workload injects labelled steps and transient spikes and scores
// the reports against them. With --trace 1 the run is made twice, once
// untraced and once with spans recorded around every public call; the
// traced pass also replays its recorded inputs through each layer's
// entry point in isolation and prints the per-layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbdetect/internal/controlplane"
)

// windowSpan is the scan window of every workload: historic 5h, analysis
// 3h and extended 1h.
const windowSpan = 9 * time.Hour

// opts are the run settings shared by every workload.
type opts struct {
	seconds float64 // how long the timed window lasts, at least
	work    string  // directory for data dirs, removed at exit
	conns   int     // client connections (server workloads)
	setups  int     // set-ups per pass; setup_s is their median
}

// measurement is what one pass of a workload measured.
type measurement struct {
	setup                        []float64 // seconds per set-up
	wall                         float64   // timed window, seconds
	points                       int64     // points acknowledged in the timed window
	minutes                      int       // ticks run
	ingest, scan, fresh, profile []float64 // ms
	reports                      []report
	bytesPerPoint                float64 // storage footprint when the run reached its horizon
	recoverS                     float64

	// traced pass only
	cpu, loadgen        time.Duration
	sweepCPU, sweepWall time.Duration
	reg                 registryDelta
	runtime             [2]runtimeSample
	spans               []span
	keep                []*recorder
	layers              map[string]float64
}

type workloadDef struct {
	name  string
	why   string
	shape shape
	run   func(w *workload, o opts, chk *checker, traced bool) (*measurement, error)
}

var workloads = []workloadDef{
	{
		name: "steady-slide",
		why:  "headline: control plane in continuous operation; every series gains a point and every service is rescanned each tick, so windows slide and checkpoints miss",
		shape: shape{
			Tenants: 2, ServicesPerTenant: 4, SeriesPerService: 100,
			History: 540, Horizon: 660, MaxMinutes: 1200,
			InjectFrom: 545, InjectTo: 585,
			StepShare: 0.04, SpikeShare: 0.04, Season: 0.03,
		},
		run: runSteady,
	},
	{
		name: "ingest-mix",
		why:  "write-heavy control plane: NDJSON batches and gzipped pprof uploads from 4 tenants stress decode, parse, quota, WAL and append, with periodic scans beside them",
		shape: shape{
			Tenants: 4, ServicesPerTenant: 1, SeriesPerService: 100,
			WriteServices: 4, WriteSeries: 250,
			History: 540, Horizon: 660, MaxMinutes: 1500,
			InjectFrom: 545, InjectTo: 580,
			StepShare: 0.04, SpikeShare: 0.04, Season: 0.03,
			ProfileFuncs: 200,
		},
		run: runIngestMix,
	},
	{
		name: "sweep-longterm",
		why:  "library Monitor with the long-term path on over seasonal series: period detection and STL dominate, with no HTTP or WAL",
		shape: shape{
			Tenants: 1, ServicesPerTenant: 8, SeriesPerService: 50,
			History: 540, Horizon: 620, MaxMinutes: 1200,
			InjectFrom: 545, InjectTo: 560,
			StepShare: 0.04, SpikeShare: 0.04, Season: 0.05,
		},
		run: runSweep,
	},
}

func runSteady(w *workload, o opts, chk *checker, traced bool) (*measurement, error) {
	return runServer(w, steadyTick(w), o, chk, traced, false)
}

func runIngestMix(w *workload, o opts, chk *checker, traced bool) (*measurement, error) {
	return runServer(w, mixTick(w), o, chk, traced, true)
}

// runServer runs a server workload, computes the traced pass's layers
// while the server is still open, then closes it; with reopen it also
// checks that a reopened server recovers exactly the acknowledged points.
func runServer(w *workload, tick tickFunc, o opts, chk *checker, traced, reopen bool) (*measurement, error) {
	m, env, err := runServerWorkload(w, tick, o, chk, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		if m.layers, err = serverLayers(w, m, env, o, chk); err != nil {
			return nil, err
		}
		m.layers["runtime.heap_live_mb"] = heapLiveMB()
	}
	acked := env.ackedPoints()
	if err := env.close(); err != nil {
		chk.failf("closing server: %v", err)
	}
	if reopen {
		start := time.Now()
		srv, err := controlplane.NewServer(controlplane.Options{DataDir: env.dir, AdminKey: adminKey})
		if err != nil {
			chk.failf("reopening server: %v", err)
			return m, nil
		}
		m.recoverS = time.Since(start).Seconds()
		got := srv.Store().DB.StorageStats().Points
		chk.expect(got == acked, "reopened store holds %d points, %d were acknowledged", got, acked)
		chk.expect(srv.Tenants() == w.shape.Tenants, "reopened server has %d tenants, want %d", srv.Tenants(), w.shape.Tenants)
		if err := srv.Close(); err != nil {
			chk.failf("closing reopened server: %v", err)
		}
	}
	if m.layers != nil {
		m.layers["wal.recover_s"] = m.recoverS
	}
	return m, nil
}

func runSweep(w *workload, o opts, chk *checker, traced bool) (*measurement, error) {
	m, env, err := runMonitorWorkload(w, o, chk, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		m.layers = monitorLayers(w, m, env, chk)
		m.layers["runtime.heap_live_mb"] = heapLiveMB()
	}
	return m, nil
}

// metricDef names one reported metric. moves, for a per-layer metric,
// is the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd lists the metrics of the result line of an untraced run. The
// full table, printed above it, also shows the metrics that do not apply
// to every workload or have too few samples.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ingest_pts_per_s", unit: "points/s"},
	{name: "ingest_p50_ms", unit: "ms"},
	{name: "scan_p50_ms", unit: "ms"},
	{name: "freshness_p50_ms", unit: "ms"},
	{name: "bytes_per_point", unit: "B/point"},
}

var perLayer = []metricDef{
	{"loadgen.cpu_share", "ratio", "guard on every workload"},
	{"http.ingest_overhead_us", "us", "ingest_p50_ms (ingest-mix)"},
	{"http.scan_overhead_ms", "ms", "scan_p50_ms (steady-slide)"},
	{"controlplane.ingest_overhead_us_per_batch", "us", "ingest_pts_per_s (ingest-mix)"},
	{"distributed.ingest_decode_ns_per_pt", "ns", "ingest_pts_per_s, ingest_p99_ms (ingest-mix)"},
	{"distributed.ingest_alloc_bytes_per_pt", "B", "ingest_pts_per_s, ingest_p99_ms (ingest-mix)"},
	{"distributed.profile_fold_ms", "ms", "profile_p50_ms (ingest-mix)"},
	{"distributed.worker_scan_ms", "ms", "scan_p99_ms, freshness_p99_ms (steady-slide)"},
	{"pprofparse.parse_ms_per_profile", "ms", "profile_p50_ms, profile_p99_ms (ingest-mix)"},
	{"pprofparse.allocs_per_profile", "count", "profile_p50_ms, profile_p99_ms (ingest-mix)"},
	{"wal.append_us_per_batch", "us", "ingest_p50_ms (ingest-mix, steady-slide)"},
	{"wal.records_per_fsync", "ratio", "ingest_pts_per_s (ingest-mix)"},
	{"wal.bytes_per_point", "B/point", "ingest_pts_per_s (ingest-mix)"},
	{"wal.recover_s", "s", "informational (ingest-mix reopen check)"},
	{"tsdb.append_ns_per_pt", "ns", "ingest_pts_per_s (ingest-mix), slide_series_per_s (sweep-longterm)"},
	{"tsdb.bytes_per_point", "B/point", "bytes_per_point (all)"},
	{"tsdb.decode_us_per_window", "us", "slide_series_per_s (steady-slide)"},
	{"tsdb.view_points_per_slide", "count", "slide_series_per_s (steady-slide)"},
	{"core.scan_ms_per_metric", "ms", "slide_series_per_s, scan_p50_ms"},
	{"core.changepoint_us", "us", "slide_series_per_s"},
	{"core.wentaway_us", "us", "slide_series_per_s (steady-slide)"},
	{"core.seasonality_us", "us", "slide_series_per_s (sweep-longterm)"},
	{"core.longterm_us", "us", "slide_series_per_s (sweep-longterm)"},
	{"core.finalize_us", "us", "slide_series_per_s"},
	{"core.changepoints_per_slide", "ratio", "count: exact optimisations leave it unchanged"},
	{"core.wentaway_keep_ratio", "ratio", "count: exact optimisations leave it unchanged"},
	{"core.candidates_per_slide", "ratio", "count: exact optimisations leave it unchanged"},
	{"core.checkpoint_hit_ratio", "ratio", "slide_series_per_s"},
	{"core.stl_cache_hit_ratio", "ratio", "slide_series_per_s"},
	{"core.sweep_cpu_util", "ratio", "slide_series_per_s (sweep-longterm)"},
	{"runtime.gc_cpu_share", "ratio", "ingest_pts_per_s (ingest-mix), p99 latencies (all)"},
	{"runtime.alloc_bytes_per_pt", "B", "ingest_pts_per_s (ingest-mix), p99 latencies (all)"},
	{"runtime.heap_live_mb", "MiB", "p99 latencies (all)"},
	{"trace.overhead_pct", "%", "traced against untraced ingest_pts_per_s"},
}

// minSamples is the fewest samples a median or p99 is reported from.
const minSamples = 1000

// e2eRow is one row of the end-to-end table.
type e2eRow struct {
	name, unit string
	value      float64
	n          int  // samples behind a latency, 0 for other metrics
	ok         bool // applies to this workload and has enough samples
}

func endToEndRows(w *workload, m *measurement, d detection, attempted, failed int) []e2eRow {
	lat := func(name string, xs []float64, q float64) e2eRow {
		cp := append([]float64(nil), xs...)
		return e2eRow{name: name, unit: "ms", value: quantile(cp, q), n: len(xs), ok: len(xs) >= minSamples}
	}
	val := func(name, unit string, v float64, ok bool) e2eRow {
		return e2eRow{name: name, unit: unit, value: v, ok: ok}
	}
	// On steady-slide and sweep-longterm every acknowledged point slides
	// one series that the same tick rescans, so both rates are points
	// acknowledged per second of the timed window.
	rate := float64(m.points) / m.wall
	rows := []e2eRow{
		val("setup_s", "s", median(append([]float64(nil), m.setup...)), true),
		val("slide_series_per_s", "series/s", rate, w.name != "ingest-mix"),
		lat("scan_p50_ms", m.scan, 0.5),
		lat("scan_p99_ms", m.scan, 0.99),
		lat("freshness_p50_ms", m.fresh, 0.5),
		lat("freshness_p99_ms", m.fresh, 0.99),
		val("ingest_pts_per_s", "points/s", rate, true),
		lat("ingest_p50_ms", m.ingest, 0.5),
		lat("ingest_p99_ms", m.ingest, 0.99),
		lat("profile_p50_ms", m.profile, 0.5),
		lat("profile_p99_ms", m.profile, 0.99),
		val("detect_recall", "ratio", d.Recall, d.Steps > 0),
		val("false_reports", "count", float64(d.False), true),
		val("ttd_p50_min", "virtual min", d.ttdP50(), len(d.TTD) > 0),
		val("bytes_per_point", "B/point", m.bytesPerPoint, true), // at the horizon
		val("error_rate", "ratio", ratio(float64(failed), float64(attempted)), true),
	}
	return rows
}

// meta describes the machine and settings a run measured on.
func meta(workload string, o opts) map[string]any {
	walSync, conns := "batch", o.conns
	if workload == "sweep-longterm" {
		walSync, conns = "none (no WAL)", 1
	}
	return map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"wal_sync":    walSync,
		"data_dir_fs": fsType(o.work),
		"connections": conns,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6a656a63: "virtiofs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "steady-slide", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measuring time per pass (every run also reaches its workload's horizon)")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports the per-layer metrics")
	data := fs.String("data", ".bench_build", "directory for data dirs, traces and detection records")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := opts{
		seconds: *seconds,
		work:    filepath.Join(*data, fmt.Sprintf("run-%d", os.Getpid())),
		conns:   runtime.NumCPU(),
		setups:  3,
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	md, _ := json.Marshal(meta(def.name, o))
	fmt.Printf("meta %s\n", md)
	fmt.Printf("workload %s seed %d: %s\n", def.name, *seed, def.why)

	chk := &checker{}
	w := newWorkload(def.name, def.shape, *seed)
	m, err := def.run(w, o, chk, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	d := w.score(m.reports)
	chk.checkRepeatable(filepath.Join(*data, "detect"), w, d)

	var traced *measurement
	if *trace == 1 {
		to := o
		to.setups = 1
		traced, err = def.run(w, to, chk, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		td := w.score(traced.reports)
		chk.expect(td.Digest == d.Digest, "traced pass reported differently: %s vs %s", td.Digest, d.Digest)
		untracedRate := float64(m.points) / m.wall
		tracedRate := float64(traced.points) / traced.wall
		traced.layers["trace.overhead_pct"] = 100 * (untracedRate/tracedRate - 1)
		path := filepath.Join(*data, "traces", fmt.Sprintf("%s-seed%d.jsonl", def.name, *seed))
		if err := writeSpans(path, traced.spans); err != nil {
			chk.failf("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(traced.spans), path)
		}
	}

	attempted, failed := chk.counts()
	rows := endToEndRows(w, m, d, attempted, failed)
	fmt.Printf("\n%-22s %14s  %-12s %s\n", "end-to-end metric", "value", "unit", "note")
	for _, r := range rows {
		switch {
		case r.n == 0 && !r.ok:
			fmt.Printf("%-22s %14s  %-12s %s\n", r.name, "-", r.unit, "n/a for this workload")
		case r.n > 0 && r.n < minSamples:
			fmt.Printf("%-22s %14.6g  %-12s n=%d, fewer than %d\n", r.name, r.value, r.unit, r.n, minSamples)
		case r.n > 0:
			fmt.Printf("%-22s %14.6g  %-12s n=%d\n", r.name, r.value, r.unit, r.n)
		default:
			fmt.Printf("%-22s %14.6g  %-12s\n", r.name, r.value, r.unit)
		}
	}
	fmt.Printf("detection: %d/%d steps found, %d false reports, ttd %v min, digest %s, %d minutes run\n",
		d.Found, d.Steps, d.False, d.TTD, d.Digest, m.minutes)
	if m.recoverS > 0 {
		fmt.Printf("durability: reopen recovered every acknowledged point in %.3fs\n", m.recoverS)
	}
	for _, p := range chk.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}

	result := map[string]any{}
	if traced != nil {
		fmt.Printf("\n%-42s %14s  %-8s %s\n", "per-layer metric ("+def.name+")", "value", "unit", "should move")
		for _, l := range perLayer {
			v := traced.layers[l.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Printf("%-42s %14.6g  %-8s %s\n", l.name, v, l.unit, l.moves)
			result[l.name] = map[string]any{"value": v, "unit": l.unit}
		}
	} else {
		byName := map[string]e2eRow{}
		for _, r := range rows {
			byName[r.name] = r
		}
		for _, e := range endToEnd {
			v := byName[e.name].value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			result[e.name] = map[string]any{"value": v, "unit": e.unit}
		}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   result,
	})
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}
