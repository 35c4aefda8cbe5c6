package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// checker counts attempted operations and the ones that failed. Every
// request, library call and correctness check is one attempt; a non-2xx
// response, a transport error or a failed check is a failure.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

func (c *checker) pass() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// expect records one check: a pass when cond holds, a failure otherwise.
func (c *checker) expect(cond bool, format string, args ...any) bool {
	if cond {
		c.pass()
	} else {
		c.failf(format, args...)
	}
	return cond
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// checkAck checks one ingest acknowledgment: every point sent is
// accounted for, and none was skipped as a duplicate, since every point
// a workload sends is new.
func (c *checker) checkAck(what string, sent, appended, skipped int) {
	c.expect(appended+skipped == sent && skipped == 0,
		"%s: ack appended=%d skipped=%d for %d points sent", what, appended, skipped, sent)
}

// checkReport checks that a reported regression names a series the
// workload writes, with a change point inside the scanned window.
func (c *checker) checkReport(w *workload, metric string, changePoint time.Time, scanMinute int) {
	scan := minuteTime(scanMinute)
	c.expect(w.knownMetric(metric) && !changePoint.Before(scan.Add(-windowSpan)) && changePoint.Before(scan),
		"report on %q with change point %s is not a series of this workload inside the window of the scan at %s",
		metric, changePoint.Format(time.RFC3339), scan.Format(time.RFC3339))
}

// report is one reported regression: the tenant-visible metric and the
// minute of the scan that reported it.
type report struct {
	Metric string
	At     int
}

// detection scores the reports of a run's deterministic part against
// the injected steps.
type detection struct {
	Steps  int     `json:"steps"`
	Found  int     `json:"found"`
	False  int     `json:"false_reports"`
	Recall float64 `json:"recall"`
	TTD    []int   `json:"ttd_min"` // per found step, virtual minutes
	Digest string  `json:"digest"`  // hash of every (metric, minute) report
}

func (d detection) ttdP50() float64 {
	xs := make([]float64, len(d.TTD))
	for i, v := range d.TTD {
		xs[i] = float64(v)
	}
	return quantile(xs, 0.5)
}

// score counts, over reports at or before the horizon, the injected
// steps reported at or after their onset (recall and time to detect) and
// every other report (false reports: spikes, noise, reports before an
// onset).
func (w *workload) score(reps []report) detection {
	var kept []report
	for _, r := range reps {
		if r.At <= w.shape.Horizon {
			kept = append(kept, r)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].At != kept[j].At {
			return kept[i].At < kept[j].At
		}
		return kept[i].Metric < kept[j].Metric
	})
	first := map[int]int{} // series index -> first report minute at or after onset
	var d detection
	h := sha256.New()
	for _, r := range kept {
		fmt.Fprintf(h, "%s@%d\n", r.Metric, r.At)
		i, ok := w.byID[r.Metric]
		if ok && w.series[i].Step != nil && r.At >= w.series[i].Step.At {
			if _, seen := first[i]; !seen {
				first[i] = r.At
			}
			continue
		}
		d.False++
	}
	for i := range w.series {
		if e := w.series[i].Step; e != nil {
			d.Steps++
			if at, ok := first[i]; ok {
				d.Found++
				d.TTD = append(d.TTD, at-e.At)
			}
		}
	}
	sort.Ints(d.TTD)
	if d.Steps > 0 {
		d.Recall = float64(d.Found) / float64(d.Steps)
	}
	d.Digest = hex.EncodeToString(h.Sum(nil)[:12])
	return d
}

// checkRepeatable compares a run's detection with the one recorded by an
// earlier run of the same workload and seed under dir, and records it
// when there is none: the same seed must give the same reports.
func (c *checker) checkRepeatable(dir string, w *workload, d detection) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, w.seed))
	cur, err := json.Marshal(d)
	if err != nil {
		c.failf("encoding detection record: %v", err)
		return
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		c.expect(string(prev) == string(cur),
			"detection differs from an earlier run with seed %d: was %s, now %s", w.seed, prev, cur)
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.failf("recording detection: %v", err)
			return
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, cur, 0o644); err != nil {
			c.failf("recording detection: %v", err)
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			c.failf("recording detection: %v", err)
			return
		}
		c.pass()
	default:
		c.failf("reading detection record: %v", err)
	}
}
