package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// small shrinks a workload's shape so a whole run takes about a second:
// full history (windows must fill), a few series, a few ticks.
func small(sh shape) shape {
	sh.ServicesPerTenant = 1
	sh.SeriesPerService = 20
	if sh.WriteServices > 0 {
		sh.WriteServices, sh.WriteSeries = 1, 20
	}
	sh.Horizon = sh.History + 4
	sh.MaxMinutes = sh.Horizon
	sh.InjectFrom, sh.InjectTo = sh.History-120, sh.History-60
	return sh
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, def := range workloads {
		a := newWorkload(def.name, def.shape, 7)
		b := newWorkload(def.name, def.shape, 7)
		if !reflect.DeepEqual(a.series, b.series) {
			t.Errorf("%s: same seed gave different series or injection schedules", def.name)
		}
		last := len(a.services) - 1
		if !bytes.Equal(a.ndjson(nil, last, 100, 103), b.ndjson(nil, last, 100, 103)) {
			t.Errorf("%s: same seed gave different NDJSON bodies", def.name)
		}
		if def.shape.ProfileFuncs > 0 && !bytes.Equal(a.profile(1, 600), b.profile(1, 600)) {
			t.Errorf("%s: same seed gave different pprof bodies", def.name)
		}
		c := newWorkload(def.name, def.shape, 8)
		if reflect.DeepEqual(a.series, c.series) {
			t.Errorf("%s: seeds 7 and 8 gave the same series", def.name)
		}
	}
}

func TestInjectionSchedule(t *testing.T) {
	for _, def := range workloads {
		w := newWorkload(def.name, def.shape, 3)
		for gs, svc := range w.services {
			steps := 0
			for _, i := range svc.Series {
				s := w.series[i]
				if s.Step != nil && s.Spike != nil {
					t.Errorf("%s: series %s has both a step and a spike", def.name, s.ID)
				}
				if e := s.Step; e != nil && (svc.Write || e.At < def.shape.InjectFrom || e.At >= def.shape.InjectTo) {
					t.Errorf("%s: service %d step at minute %d", def.name, gs, e.At)
				}
				if e := s.Spike; e != nil && (svc.Write || e.At < def.shape.InjectFrom || e.At+e.Len > def.shape.Horizon) {
					t.Errorf("%s: service %d spike at minutes %d+%d", def.name, gs, e.At, e.Len)
				}
				if s.Step != nil {
					steps++
				}
			}
			if !svc.Write && steps == 0 {
				t.Errorf("%s: service %s has no step", def.name, svc.Name)
			}
		}
	}
}

// TestHeldOutSeedRunsClean runs every workload, untraced and traced, at
// a small size on a seed no tuning used, and requires every check to pass.
func TestHeldOutSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			w := newWorkload(def.name, small(def.shape), 90421)
			o := opts{seconds: 0.01, work: t.TempDir(), conns: 2, setups: 2}
			chk := &checker{}
			m, err := def.run(w, o, chk, false)
			if err != nil {
				t.Fatal(err)
			}
			d := w.score(m.reports)
			chk.checkRepeatable(t.TempDir(), w, d)
			tm, err := def.run(w, o, chk, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.score(tm.reports); got.Digest != d.Digest {
				t.Errorf("traced pass reported %s, untraced %s", got.Digest, d.Digest)
			}
			attempted, failed := chk.counts()
			if attempted == 0 || failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", failed, attempted, chk.problems)
			}
			for _, l := range perLayer {
				if _, ok := tm.layers[l.name]; !ok {
					t.Errorf("per-layer metric %s missing", l.name)
				}
			}
		})
	}
}

func TestCheckerFailsOnDroppedPoint(t *testing.T) {
	chk := &checker{}
	chk.checkAck("ingest", 100, 100, 0)
	if _, failed := chk.counts(); failed != 0 {
		t.Fatalf("complete ack failed")
	}
	chk.checkAck("ingest", 100, 99, 0)
	chk.checkAck("ingest", 100, 99, 1)
	if attempted, failed := chk.counts(); attempted != 3 || failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", attempted, failed)
	}
}

func TestCheckerFailsOnFabricatedReport(t *testing.T) {
	w := newWorkload("steady-slide", workloads[0].shape, 1)
	real := string(w.series[3].ID)
	scan := w.shape.History + 10
	chk := &checker{}
	chk.checkReport(w, real, minuteTime(scan-30), scan)
	if _, failed := chk.counts(); failed != 0 {
		t.Fatalf("a report on a real series inside the window failed: %v", chk.problems)
	}
	chk.checkReport(w, "svc0q0/op999999.site1.unit1/gcpu", minuteTime(scan-30), scan)
	chk.checkReport(w, real, minuteTime(scan+5), scan)
	if _, failed := chk.counts(); failed != 2 {
		t.Fatalf("fabricated reports: %d failures, want 2", failed)
	}

	dir := t.TempDir()
	d := w.score([]report{{Metric: real, At: scan}})
	chk = &checker{}
	chk.checkRepeatable(dir, w, d)
	chk.checkRepeatable(dir, w, d)
	d.False++
	chk.checkRepeatable(dir, w, d)
	if attempted, failed := chk.counts(); attempted != 3 || failed != 1 {
		t.Fatalf("repeatability: attempted %d failed %d, want 3 and 1", attempted, failed)
	}
}

func TestCheckerFailsOn429(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "tenant rate limit exceeded", http.StatusTooManyRequests)
	}))
	defer hs.Close()
	chk := &checker{}
	c := &conn{env: &serverEnv{hs: hs, keys: []string{"k"}}, hc: hs.Client(), chk: chk}
	if _, ok := c.ingest(0, 1, []byte(`{"metric":"a/b/c","time":"2024-08-01T00:00:00Z","value":1}`+"\n"), 0, 0); ok {
		t.Fatal("a 429 counted as success")
	}
	if attempted, failed := chk.counts(); attempted != 1 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", attempted, failed)
	}
}

func TestScore(t *testing.T) {
	w := newWorkload("steady-slide", workloads[0].shape, 5)
	var stepped, plain int
	for i, s := range w.series {
		if s.Step != nil && stepped == 0 {
			stepped = i
		}
		if s.Step == nil && s.Spike == nil && plain == 0 {
			plain = i
		}
	}
	e := w.series[stepped].Step
	d := w.score([]report{
		{Metric: string(w.series[stepped].ID), At: e.At - 1},          // before onset: false
		{Metric: string(w.series[stepped].ID), At: e.At + 40},         // found, ttd 40
		{Metric: string(w.series[plain].ID), At: e.At},                // no step: false
		{Metric: string(w.series[plain].ID), At: w.shape.Horizon + 1}, // past the horizon: ignored
	})
	if d.Found != 1 || d.False != 2 || !reflect.DeepEqual(d.TTD, []int{40}) {
		t.Fatalf("score = %+v", d)
	}
}
