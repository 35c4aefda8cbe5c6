package distributed

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"fbdetect/internal/obs"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/resilience"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/tsdb"
)

// Profiles rejection reasons, the reason label of MetricProfilesRejected.
const (
	ProfilesReasonBadMethod   = "bad_method"
	ProfilesReasonBadRequest  = "bad_request"
	ProfilesReasonBadProfile  = "bad_profile"
	ProfilesReasonTooLarge    = "too_large"
	ProfilesReasonBusy        = "busy"
	ProfilesReasonStoreFailed = "store_failed"
)

// Profile-ingestion metric names.
const (
	MetricProfilesTotal       = "fbdetect_profiles_total"
	MetricProfilesRejected    = "fbdetect_profiles_rejected_total"
	MetricProfilesPoints      = "fbdetect_profiles_points_total"
	MetricProfilesSkipped     = "fbdetect_profiles_skipped_points_total"
	MetricProfilesBytes       = "fbdetect_profiles_bytes_total"
	MetricProfilesSubroutines = "fbdetect_profiles_subroutines"
	MetricProfilesParseSecs   = "fbdetect_profiles_parse_seconds"
)

// ProfilesOptions tunes POST /profiles. Zero fields take defaults.
type ProfilesOptions struct {
	// MaxBodyBytes caps one uploaded profile after decompression (default
	// 32 MiB; continuous-profiler CPU profiles run tens of KiB). Larger
	// uploads get a 413.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently processed uploads (default 4);
	// overflow gets 429 + Retry-After, mirroring /ingest.
	MaxInFlight int
	// RetryAfter is the hint sent with 429s (default 1s).
	RetryAfter time.Duration
	// TopK caps how many subroutines one profile may fan out into gCPU
	// points (default 200, ranked by gCPU, ties broken by name). The
	// paper tracks the top ~10k subroutines fleet-wide; per-upload
	// capping keeps one noisy profile from registering thousands of
	// one-off series.
	TopK int
	// SampleType picks the pprof sample value to weight by (default: the
	// profile's default type, falling back to cpu/nanoseconds last).
	SampleType string
	// MaxLineBytes caps one folded-text line (default
	// stacktrace.DefaultMaxLineBytes).
	MaxLineBytes int
	// Now supplies the fallback timestamp for profiles that carry none
	// (folded text without an explicit ?time=). nil means time.Now.
	Now func() time.Time
}

func (o ProfilesOptions) withDefaults() ProfilesOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.TopK <= 0 {
		o.TopK = 200
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ProfilesResult is the handler's acknowledgment for one uploaded
// profile.
type ProfilesResult struct {
	// Format is the detected wire format: "pprof" or "folded".
	Format string `json:"format"`
	// Service and Time echo where the profile's gCPU points landed.
	Service string    `json:"service"`
	Time    time.Time `json:"time"`
	// Subroutines is how many distinct subroutines the profile resolved
	// to; Capped flags that TopK dropped the tail.
	Subroutines int  `json:"subroutines"`
	Capped      bool `json:"capped,omitempty"`
	// Appended and Skipped mirror IngestResult: points accepted vs
	// already present (idempotent re-uploads).
	Appended int `json:"appended"`
	Skipped  int `json:"skipped"`
}

// ProfilesHandler serves POST /profiles: one continuous-profiler payload
// per request — a gzipped pprof protobuf straight from runtime/pprof, or
// Brendan-Gregg folded text from perf tooling — folded into
// per-subroutine gCPU points and appended to the store through the same
// durable path /ingest uses. This is the front door that turns any real
// Go service into an FBDetect workload (ROADMAP item 1): point the
// profiler's upload hook here and the fleet's subroutine-level series
// accumulate scan-ready.
//
//	curl -X POST 'worker:8080/profiles?service=websvc&time=2024-08-01T09:00:00Z' \
//	  --data-binary @cpu.pb.gz
//
// Backpressure matches /ingest: 413 for oversized bodies (split or trim
// the profile, don't retry), 429 + Retry-After when too many uploads are
// in flight.
type ProfilesHandler struct {
	store IngestStore
	opts  ProfilesOptions
	sem   chan struct{}

	reg         *obs.Registry // nil when uninstrumented
	accepted    map[string]*obs.Counter
	points      *obs.Counter
	skipped     *obs.Counter
	bytes       *obs.Counter
	subroutines *obs.Histogram
	parseSecs   *obs.Histogram
}

// NewProfilesHandler wraps store with profile parsing, gCPU mapping, and
// backpressure.
func NewProfilesHandler(store IngestStore, opts ProfilesOptions) *ProfilesHandler {
	opts = opts.withDefaults()
	return &ProfilesHandler{store: store, opts: opts,
		sem: make(chan struct{}, opts.MaxInFlight)}
}

// Instrument publishes the fbdetect_profiles_* metrics to reg. Call
// before serving.
func (h *ProfilesHandler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.reg = reg
	h.accepted = map[string]*obs.Counter{}
	for _, format := range []string{pprofparse.FormatPprof, pprofparse.FormatFolded} {
		h.accepted[format] = reg.NewCounter(MetricProfilesTotal,
			"Profiles accepted, by wire format.", obs.Labels{"format": format})
	}
	h.points = reg.NewCounter(MetricProfilesPoints,
		"gCPU points appended through /profiles.", nil)
	h.skipped = reg.NewCounter(MetricProfilesSkipped,
		"Profile gCPU points skipped as already present (idempotent re-uploads).", nil)
	h.bytes = reg.NewCounter(MetricProfilesBytes,
		"Request body bytes accepted by /profiles.", nil)
	h.subroutines = reg.NewHistogram(MetricProfilesSubroutines,
		"Distinct subroutines resolved per accepted profile.",
		[]float64{1, 5, 10, 25, 50, 100, 200, 500, 1000, 5000}, nil)
	h.parseSecs = reg.NewHistogram(MetricProfilesParseSecs,
		"Profile parse+convert latency.", nil, nil)
	for _, reason := range []string{
		ProfilesReasonBadMethod, ProfilesReasonBadRequest, ProfilesReasonBadProfile,
		ProfilesReasonTooLarge, ProfilesReasonBusy, ProfilesReasonStoreFailed,
	} {
		h.rejCounter(reason)
	}
}

// rejCounter returns the rejection counter for one reason (nil-safe when
// uninstrumented).
func (h *ProfilesHandler) rejCounter(reason string) *obs.Counter {
	return h.reg.NewCounter(MetricProfilesRejected,
		"Profile uploads rejected, by reason.", obs.Labels{"reason": reason})
}

// ServeHTTP implements POST /profiles.
func (h *ProfilesHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		h.rejCounter(ProfilesReasonBadMethod).Inc()
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	select {
	case h.sem <- struct{}{}:
		defer func() { <-h.sem }()
	default:
		h.rejCounter(ProfilesReasonBusy).Inc()
		rw.Header().Set("Retry-After", resilience.FormatRetryAfter(h.opts.RetryAfter))
		http.Error(rw, "too many profile uploads in flight", http.StatusTooManyRequests)
		return
	}

	service := req.URL.Query().Get("service")
	if service == "" {
		h.rejCounter(ProfilesReasonBadRequest).Inc()
		http.Error(rw, "query parameter service is required (the service the profile was captured from)",
			http.StatusBadRequest)
		return
	}
	var explicitTime time.Time
	if ts := req.URL.Query().Get("time"); ts != "" {
		var err error
		explicitTime, err = time.Parse(time.RFC3339, ts)
		if err != nil {
			h.rejCounter(ProfilesReasonBadRequest).Inc()
			http.Error(rw, "bad time parameter (want RFC3339): "+err.Error(), http.StatusBadRequest)
			return
		}
	}

	raw, err := readBody(rw, req, h.opts.MaxBodyBytes)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			h.rejCounter(ProfilesReasonTooLarge).Inc()
			http.Error(rw, fmt.Sprintf("profile exceeds %d bytes", h.opts.MaxBodyBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		h.rejCounter(ProfilesReasonBadRequest).Inc()
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	parseStart := time.Now()
	ss, format, profTime, err := h.parse(raw, req.Header.Get("Content-Type"))
	if err != nil {
		h.rejCounter(ProfilesReasonBadProfile).Inc()
		http.Error(rw, "bad profile: "+err.Error(), http.StatusBadRequest)
		return
	}
	h.parseSecs.Observe(time.Since(parseStart).Seconds())

	// Timestamp precedence: explicit ?time= beats the profile's own
	// collection time beats the server clock. Points are bucketed by the
	// store's step on append, so any in-bucket skew is absorbed.
	t := explicitTime
	if t.IsZero() {
		t = profTime
	}
	if t.IsZero() {
		t = h.opts.Now().UTC()
	}

	pts, capped := gcpuPoints(service, t, ss, h.opts.TopK)
	appended, err := h.store.AppendBatch(pts)
	if err != nil {
		h.rejCounter(ProfilesReasonStoreFailed).Inc()
		http.Error(rw, "append failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	h.accepted[format].Inc()
	h.points.Add(float64(appended))
	h.skipped.Add(float64(len(pts) - appended))
	h.bytes.Add(float64(len(raw)))
	h.subroutines.Observe(float64(len(pts)))
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(ProfilesResult{
		Format: format, Service: service, Time: t,
		Subroutines: len(pts), Capped: capped,
		Appended: appended, Skipped: len(pts) - appended,
	})
}

// parse decodes the upload in either wire format, returning the sample
// set, detected format, and the profile's own collection time (zero for
// folded text, which carries none).
func (h *ProfilesHandler) parse(raw []byte, contentType string) (*stacktrace.SampleSet, string, time.Time, error) {
	var profTime time.Time
	format := pprofparse.DetectFormat(raw, contentType)
	if format == pprofparse.FormatPprof {
		p, err := pprofparse.ParseLimit(raw, h.opts.MaxBodyBytes)
		if err != nil {
			return nil, format, profTime, err
		}
		if p.TimeNanos > 0 {
			profTime = time.Unix(0, p.TimeNanos).UTC()
		}
		ss, err := p.SampleSet(pprofparse.ConvertOptions{SampleType: h.opts.SampleType})
		return ss, format, profTime, err
	}
	ss, _, err := pprofparse.ReadAny(raw, contentType, pprofparse.ConvertOptions{},
		stacktrace.FoldedOptions{MaxLineBytes: h.opts.MaxLineBytes})
	return ss, format, profTime, err
}

// gcpuPoints maps a profile's sample set onto per-subroutine gCPU points
// for one time bucket, keeping the topK highest-gCPU subroutines
// (deterministic: ties break by name). Reports whether the cap dropped
// any.
func gcpuPoints(service string, t time.Time, ss *stacktrace.SampleSet, topK int) ([]tsdb.Point, bool) {
	all := ss.GCPUAll()
	subs := make([]string, 0, len(all))
	for sub := range all {
		subs = append(subs, sub)
	}
	sort.Slice(subs, func(i, j int) bool {
		if all[subs[i]] != all[subs[j]] {
			return all[subs[i]] > all[subs[j]]
		}
		return subs[i] < subs[j]
	})
	capped := false
	if topK > 0 && len(subs) > topK {
		subs, capped = subs[:topK], true
	}
	// Points sort by metric ID so AppendBatch's per-shard bucketing sees
	// a deterministic order regardless of map iteration.
	sort.Strings(subs)
	pts := make([]tsdb.Point, 0, len(subs))
	for _, sub := range subs {
		pts = append(pts, tsdb.Point{ID: tsdb.ID(service, sub, "gcpu"), T: t, V: all[sub]})
	}
	return pts, capped
}
