package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fbdetect/internal/controlplane"
	"fbdetect/internal/distributed"
)

const adminKey = "perfbench-admin"

// serverEnv is one control-plane server with its shipped defaults
// (SyncBatch WAL, 5h/3h/1h windows, threshold 0.001) behind an
// in-process HTTP server on loopback, plus the tenants registered on it.
type serverEnv struct {
	w     *workload
	dir   string
	srv   *controlplane.Server
	hs    *httptest.Server
	keys  []string // bearer key per tenant
	ids   []string // tenant ID per tenant
	conns []*conn

	mu    sync.Mutex
	acked int64 // points acknowledged since the server opened
}

// connStats is what one client connection measured.
type connStats struct {
	ingest, scan, fresh, profile []float64 // ms
	points                       int64
	reports                      []report
}

// conn is one closed-loop client: it sends its next request only after
// the previous one was answered, over a single keep-alive connection.
type conn struct {
	env  *serverEnv
	hc   *http.Client
	chk  *checker
	tr   *tracer
	st   connStats
	buf  []byte
	keep *recorder // inputs kept for the traced layer replay
	mix  *mixState // ingest-mix bookkeeping
}

func openServer(w *workload, dir string, nconn int, chk *checker) (*serverEnv, error) {
	srv, err := controlplane.NewServer(controlplane.Options{DataDir: dir, AdminKey: adminKey})
	if err != nil {
		return nil, err
	}
	env := &serverEnv{w: w, dir: dir, srv: srv, hs: httptest.NewServer(srv.Handler())}
	for i := 0; i < nconn; i++ {
		env.conns = append(env.conns, &conn{env: env, chk: chk, hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}})
	}
	for t := 0; t < w.shape.Tenants; t++ {
		// Quotas sit far above the offered load, so a 429 or 403 is a
		// real failure, not the benchmark tripping its own limits.
		body, _ := json.Marshal(map[string]any{
			"name":   fmt.Sprintf("tenant%d", t),
			"quotas": controlplane.Quotas{MaxSeries: 1 << 20, RatePerSec: 1e9, Burst: 1 << 30},
		})
		var ten controlplane.Tenant
		if _, ok := env.conns[0].post("/admin/tenants", adminKey, "application/json", body, &ten); !ok {
			env.close()
			return nil, fmt.Errorf("registering tenant %d failed", t)
		}
		env.keys = append(env.keys, ten.Key)
		env.ids = append(env.ids, ten.ID)
	}
	return env, nil
}

// close stops the HTTP server, waiting for open requests, then closes
// the control plane (snapshotting its store).
func (e *serverEnv) close() error {
	e.hs.Close()
	for _, c := range e.conns {
		c.hc.CloseIdleConnections()
	}
	return e.srv.Close()
}

// post sends one request and reads the whole answer. It returns the
// round-trip time up to the last response byte and whether the request
// succeeded with a 2xx and a decodable body.
func (c *conn) post(path, key, ctype string, body []byte, out any) (time.Duration, bool) {
	req, err := http.NewRequest(http.MethodPost, c.env.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		c.chk.failf("POST %s: %v", path, err)
		return 0, false
	}
	req.Header.Set("Authorization", "Bearer "+key)
	req.Header.Set("Content-Type", ctype)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.chk.failf("POST %s: %v", path, err)
		return 0, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		c.chk.failf("POST %s: reading response: %v", path, err)
		return rtt, false
	}
	if resp.StatusCode/100 != 2 {
		c.chk.failf("POST %s: %s: %.200s", path, resp.Status, data)
		return rtt, false
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.chk.failf("POST %s: decoding response: %v", path, err)
			return rtt, false
		}
	}
	c.chk.pass()
	return rtt, true
}

// ingest posts an NDJSON batch of n points for tenant t and checks the ack.
func (c *conn) ingest(t, n int, body []byte, tick int, parent int64) (time.Duration, bool) {
	sp := c.tr.begin("ingest", tick, parent)
	var res distributed.IngestResult
	rtt, ok := c.post("/ingest", c.env.keys[t], "application/x-ndjson", body, &res)
	c.tr.end(sp)
	if ok {
		c.chk.checkAck("ingest", n, res.Appended, res.Skipped)
		c.env.addAcked(res.Appended)
	}
	return rtt, ok
}

// uploadProfile posts tenant t's pprof profile of minute m.
func (c *conn) uploadProfile(t, m int, body []byte, parent int64) (time.Duration, int, bool) {
	sp := c.tr.begin("profile", m, parent)
	var res distributed.ProfilesResult
	path := "/profiles?service=" + c.env.w.profService[t] + "&time=" + minuteTime(m).Format(time.RFC3339)
	rtt, ok := c.post(path, c.env.keys[t], "application/octet-stream", body, &res)
	c.tr.end(sp)
	if !ok {
		return rtt, 0, false
	}
	// Every function of the call tree becomes one gCPU point.
	c.chk.checkAck("profile", c.env.w.shape.ProfileFuncs, res.Appended, res.Skipped)
	c.env.addAcked(res.Appended)
	return rtt, res.Appended, true
}

// scan posts one /scan of a tenant service at minute at, checks every
// reported regression, and records it.
func (c *conn) scan(t int, svc string, at, tick int, parent int64) (time.Duration, bool) {
	sp := c.tr.begin("scan", tick, parent)
	body, _ := json.Marshal(distributed.ScanRequest{Service: svc, ScanTime: minuteTime(at)})
	var res distributed.ScanResponse
	rtt, ok := c.post("/scan", c.env.keys[t], "application/json", body, &res)
	c.tr.end(sp)
	if !ok {
		return rtt, false
	}
	for _, r := range res.Reported {
		c.chk.checkReport(c.env.w, r.Metric, r.ChangePointTime, at)
		c.st.reports = append(c.st.reports, report{Metric: r.Metric, At: at})
	}
	return rtt, true
}

func (e *serverEnv) addAcked(n int) {
	e.mu.Lock()
	e.acked += int64(n)
	e.mu.Unlock()
}

func (e *serverEnv) ackedPoints() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acked
}

// tickFunc is what distinguishes the two server workloads: what
// connection ci does in the tick of minute m.
type tickFunc func(c *conn, ci, m int, root int64)

// historyBatch is one /ingest body of set-up history, built before set-up
// is timed.
type historyBatch struct {
	n    int
	body []byte
}

// historyBatches builds, per tenant, the bodies that load the History
// minutes of its scanned services, an hour of one service per body.
func historyBatches(w *workload) [][]historyBatch {
	out := make([][]historyBatch, w.shape.Tenants)
	for t := range out {
		for _, gs := range w.tenantServices(t, false) {
			for from := 0; from < w.shape.History; from += 60 {
				to := min(from+60, w.shape.History)
				out[t] = append(out[t], historyBatch{
					n:    (to - from) * len(w.services[gs].Series),
					body: w.ndjson(nil, gs, from, to),
				})
			}
		}
	}
	return out
}

// owned lists the tenants connection ci drives: tenant t belongs to
// connection t mod conns, so each connection owns half the services.
func (e *serverEnv) owned(ci int) []int {
	var ts []int
	for t := 0; t < e.w.shape.Tenants; t++ {
		if t%len(e.conns) == ci {
			ts = append(ts, t)
		}
	}
	return ts
}

// eachConn runs fn on every connection concurrently and waits.
func (e *serverEnv) eachConn(fn func(c *conn, ci int)) {
	var wg sync.WaitGroup
	for ci, c := range e.conns {
		wg.Add(1)
		go func(c *conn, ci int) {
			defer wg.Done()
			fn(c, ci)
		}(c, ci)
	}
	wg.Wait()
}

// runServerWorkload sets up the server o.setups times (keeping the last),
// then runs tick for every connection, minute by minute, from History up
// to at least Horizon and while o.seconds last. Set-up opens the server,
// registers the tenants, loads the history and scans every scanned
// service once.
func runServerWorkload(w *workload, tick tickFunc, o opts, chk *checker, traced bool) (*measurement, *serverEnv, error) {
	m := &measurement{}
	hist := historyBatches(w)
	var env *serverEnv
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(o.work, "data-"+strconv.Itoa(i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		e, err := openServer(w, dir, o.conns, chk)
		if err != nil {
			return nil, nil, err
		}
		e.eachConn(func(c *conn, ci int) {
			for _, t := range e.owned(ci) {
				for _, b := range hist[t] {
					c.ingest(t, b.n, b.body, 0, 0)
				}
			}
			for _, t := range e.owned(ci) {
				for _, gs := range w.tenantServices(t, false) {
					c.scan(t, w.services[gs].Name, w.shape.History, 0, 0)
				}
			}
		})
		m.setup = append(m.setup, time.Since(start).Seconds())
		if i < o.setups-1 {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			continue
		}
		env = e
	}
	for _, c := range env.conns {
		// The priming scans' reports belong to the run; set-up's
		// latencies and points do not.
		c.st = connStats{reports: c.st.reports}
		if traced {
			c.keep = &recorder{}
		}
	}

	reg := env.srv.Registry()
	runtime.GC()
	before := snapshotRegistry(reg)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for ci, c := range env.conns {
		if traced {
			c.tr = &tracer{base: start, conn: int64(ci)}
		}
	}
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	// Ticks are virtual minutes: every connection finishes minute m
	// before any starts m+1, as a minute's data arrives together.
	for minute := w.shape.History; ; minute++ {
		if minute >= w.shape.Horizon && (minute >= w.shape.MaxMinutes || time.Now().After(deadline)) {
			break
		}
		env.eachConn(func(c *conn, ci int) {
			root := c.tr.begin("tick", minute, 0)
			tick(c, ci, minute, root)
			c.tr.end(root)
		})
		m.minutes++
		if minute+1 == w.shape.Horizon {
			m.bytesPerPoint = env.srv.Store().DB.StorageStats().BytesPerPoint()
		}
	}
	m.wall = time.Since(start).Seconds()
	m.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	after := snapshotRegistry(reg)

	for _, c := range env.conns {
		m.ingest = append(m.ingest, c.st.ingest...)
		m.scan = append(m.scan, c.st.scan...)
		m.fresh = append(m.fresh, c.st.fresh...)
		m.profile = append(m.profile, c.st.profile...)
		m.points += c.st.points
		m.reports = append(m.reports, c.st.reports...)
		if c.keep != nil {
			m.keep = append(m.keep, c.keep)
		}
		if c.tr != nil {
			m.spans = append(m.spans, c.tr.spans...)
			m.loadgen += c.tr.total("gen")
		}
	}
	m.reg = registryDelta{before: before, after: after}
	m.runtime = [2]runtimeSample{rt0, rt1}
	stats := env.srv.Store().DB.StorageStats()
	acked := env.ackedPoints()
	chk.expect(stats.Points == acked,
		"store holds %d points, %d were acknowledged", stats.Points, acked)
	return m, env, nil
}

// steadyTick is steady-slide: each tick, one NDJSON batch per owned
// service, then one /scan per owned service at the new time.
func steadyTick(w *workload) tickFunc {
	return func(c *conn, ci, m int, root int64) {
		var acks []time.Time
		ts := c.env.owned(ci)
		for _, t := range ts {
			for _, gs := range w.tenantServices(t, false) {
				n := len(w.services[gs].Series)
				g := c.tr.begin("gen", m, root)
				c.buf = w.ndjson(c.buf[:0], gs, m, m+1)
				c.tr.end(g)
				c.keep.ingest(c.buf)
				rtt, ok := c.ingest(t, n, c.buf, m, root)
				acks = append(acks, time.Now())
				if ok {
					c.st.ingest = append(c.st.ingest, ms(rtt))
					c.st.points += int64(n)
				}
			}
		}
		k := 0
		for _, t := range ts {
			for _, gs := range w.tenantServices(t, false) {
				rtt, ok := c.scan(t, w.services[gs].Name, m+1, m, root)
				if ok {
					c.st.scan = append(c.st.scan, ms(rtt))
					c.st.fresh = append(c.st.fresh, ms(time.Since(acks[k])))
				}
				k++
			}
		}
	}
}

// mixState is ingest-mix's per-connection bookkeeping for freshness:
// the ack time of each tenant batch, and the first tick each scanned
// service's scans have not covered yet.
type mixState struct {
	acks    map[int][]time.Time // tenant -> ack time per tick since History
	covered map[int]int         // service -> first tick not yet covered by a scan
}

// mixScanEvery is ingest-mix's scan cadence: each scanned service is
// rescanned every mixScanEvery minutes, staggered across services so
// every tick carries about the same number of scans.
const mixScanEvery = 4

// mixTick is ingest-mix: each tick, per owned tenant, one NDJSON batch
// carrying a point of every series of the tenant (its write-only
// services and its scanned one) and one gzipped pprof upload; then the
// scanned services due this tick are rescanned.
func mixTick(w *workload) tickFunc {
	return func(c *conn, ci, m int, root int64) {
		if c.mix == nil {
			c.mix = &mixState{acks: map[int][]time.Time{}, covered: map[int]int{}}
		}
		st := c.mix
		ts := c.env.owned(ci)
		for _, t := range ts {
			g := c.tr.begin("gen", m, root)
			c.buf = c.buf[:0]
			n := 0
			for _, gs := range w.tenantServices(t, true) {
				c.buf = w.ndjson(c.buf, gs, m, m+1)
				n += len(w.services[gs].Series)
			}
			c.tr.end(g)
			c.keep.ingest(c.buf)
			rtt, ok := c.ingest(t, n, c.buf, m, root)
			st.acks[t] = append(st.acks[t], time.Now())
			if ok {
				c.st.ingest = append(c.st.ingest, ms(rtt))
				c.st.points += int64(n)
			}
			g = c.tr.begin("gen", m, root)
			prof := w.profile(t, m)
			c.tr.end(g)
			c.keep.profile(t, prof)
			rtt, appended, ok := c.uploadProfile(t, m, prof, root)
			if ok {
				c.st.profile = append(c.st.profile, ms(rtt))
				c.st.points += int64(appended)
			}
		}
		for _, t := range ts {
			for _, gs := range w.tenantServices(t, false) {
				if (m+gs)%mixScanEvery != 0 {
					continue
				}
				rtt, ok := c.scan(t, w.services[gs].Name, m+1, m, root)
				if !ok {
					continue
				}
				done := time.Now()
				c.st.scan = append(c.st.scan, ms(rtt))
				from, seen := st.covered[gs]
				if !seen {
					from = w.shape.History
				}
				for tick := from; tick <= m; tick++ {
					c.st.fresh = append(c.st.fresh, ms(done.Sub(st.acks[t][tick-w.shape.History])))
				}
				st.covered[gs] = m + 1
			}
		}
	}
}
