package main

import (
	"runtime"
	"time"

	"fbdetect"
	"fbdetect/internal/obs"
	"fbdetect/internal/tsdb"
)

// monitorEnv is the cmd/fbdetect -watch path: a DB, a Detector with the
// long-term path on, and a Monitor watching every service.
type monitorEnv struct {
	db      *fbdetect.DB
	mon     *fbdetect.Monitor
	reg     *obs.Registry
	reports []report
	acked   int64
}

// monitorConfig is cmd/fbdetect's detection job: 5h/3h/1h windows,
// threshold 0.0005, long-term detection on, STLExtend at its default (off).
func monitorConfig() fbdetect.Config {
	return fbdetect.Config{
		Threshold: 0.0005,
		Windows: fbdetect.WindowConfig{
			Historic: 5 * time.Hour,
			Analysis: 3 * time.Hour,
			Extended: time.Hour,
		},
		LongTerm: true,
	}
}

// openMonitor sets up the monitor: a DB loaded with hist (per service,
// built before set-up is timed), the detector and monitor, and a first
// ScanOnce at the end of the history.
func openMonitor(w *workload, hist [][]tsdb.Point, chk *checker) (*monitorEnv, error) {
	e := &monitorEnv{db: fbdetect.NewDB(time.Minute), reg: obs.NewRegistry()}
	for _, pts := range hist {
		n, err := e.db.AppendBatch(pts)
		if err != nil {
			return nil, err
		}
		chk.checkAck("history AppendBatch", len(pts), n, len(pts)-n)
		e.acked += int64(n)
	}
	det, err := fbdetect.NewDetector(monitorConfig(), e.db, nil, nil)
	if err != nil {
		return nil, err
	}
	det.Instrument(e.reg, nil)
	mon, err := fbdetect.NewMonitor(det, time.Minute)
	if err != nil {
		return nil, err
	}
	mon.Instrument(e.reg)
	for _, s := range w.services {
		mon.Watch(s.Name)
	}
	mon.OnReport(func(r *fbdetect.Regression) {
		at := int(r.DetectedAt.Sub(t0) / time.Minute)
		chk.checkReport(w, string(r.Metric), r.ChangePointTime, at)
		e.reports = append(e.reports, report{Metric: string(r.Metric), At: at})
	})
	e.mon = mon
	// The priming scan is part of set-up; its reports belong to the run.
	if err := mon.ScanOnce(minuteTime(w.shape.History)); err != nil {
		chk.failf("ScanOnce at minute %d: %v", w.shape.History, err)
	} else {
		chk.pass()
	}
	return e, nil
}

// runMonitorWorkload is sweep-longterm: set up o.setups times (keeping
// the last), then per tick one DB.AppendBatch per service followed by
// one Monitor.ScanOnce at the new time.
func runMonitorWorkload(w *workload, o opts, chk *checker, traced bool) (*measurement, *monitorEnv, error) {
	m := &measurement{}
	hist := make([][]tsdb.Point, len(w.services))
	for gs := range hist {
		hist[gs] = w.points(nil, gs, 0, w.shape.History)
	}
	var env *monitorEnv
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		e, err := openMonitor(w, hist, chk)
		if err != nil {
			return nil, nil, err
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		env = e
	}
	var tr *tracer
	var keep *recorder
	runtime.GC()
	before := snapshotRegistry(env.reg)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	if traced {
		tr = &tracer{base: start}
		keep = &recorder{}
	}
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var pts []tsdb.Point
	acks := make([]time.Time, len(w.services))
	var sweepCPU, sweepWall time.Duration
	for tick := w.shape.History; ; tick++ {
		if tick >= w.shape.Horizon && (tick >= w.shape.MaxMinutes || time.Now().After(deadline)) {
			break
		}
		root := tr.begin("tick", tick, 0)
		for gs := range w.services {
			g := tr.begin("gen", tick, root)
			pts = w.points(pts[:0], gs, tick, tick+1)
			tr.end(g)
			keep.points(pts)
			sp := tr.begin("append", tick, root)
			t1 := time.Now()
			n, err := env.db.AppendBatch(pts)
			d := time.Since(t1)
			acks[gs] = time.Now()
			tr.end(sp)
			if err != nil {
				chk.failf("AppendBatch: %v", err)
				continue
			}
			chk.checkAck("AppendBatch", len(pts), n, len(pts)-n)
			env.acked += int64(n)
			m.ingest = append(m.ingest, ms(d))
			m.points += int64(n)
		}
		sp := tr.begin("scan", tick, root)
		c1, t1 := cpuTime(), time.Now()
		err := env.mon.ScanOnce(minuteTime(tick + 1))
		done := time.Now()
		sweepWall += done.Sub(t1)
		sweepCPU += cpuTime() - c1
		tr.end(sp)
		if err != nil {
			chk.failf("ScanOnce at minute %d: %v", tick+1, err)
		} else {
			chk.pass()
			m.scan = append(m.scan, ms(done.Sub(t1)))
			for gs := range w.services {
				m.fresh = append(m.fresh, ms(done.Sub(acks[gs])))
			}
		}
		tr.end(root)
		m.minutes++
		if tick+1 == w.shape.Horizon {
			m.bytesPerPoint = env.db.StorageStats().BytesPerPoint()
		}
	}
	m.wall = time.Since(start).Seconds()
	m.cpu = cpuTime() - cpu0
	m.runtime = [2]runtimeSample{rt0, readRuntime()}
	m.reg = registryDelta{before: before, after: snapshotRegistry(env.reg)}
	m.sweepCPU, m.sweepWall = sweepCPU, sweepWall
	if tr != nil {
		m.spans = tr.spans
		m.loadgen = tr.total("gen")
		m.keep = []*recorder{keep}
	}
	m.reports = env.reports
	stats := env.db.StorageStats()
	chk.expect(stats.Points == env.acked,
		"store holds %d points, %d were acknowledged", stats.Points, env.acked)
	return m, env, nil
}
