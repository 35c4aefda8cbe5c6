package fbdetect

import (
	"io"
	"net/http"
	"time"

	"fbdetect/internal/canary"
	"fbdetect/internal/controlplane"
	"fbdetect/internal/core"
	"fbdetect/internal/distributed"
	"fbdetect/internal/pprofparse"
	"fbdetect/internal/report"
	"fbdetect/internal/resilience"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/tao"
	"fbdetect/internal/tracing"
	"fbdetect/internal/tsdb"
	"fbdetect/internal/wal"
)

// TAO graph-store substrate (paper §3: FBDetect detects per-data-type I/O
// regressions on TAO traffic).
type (
	// TAOStore is an in-memory TAO-like graph store with per-data-type
	// operation accounting.
	TAOStore = tao.Store
	// TAOObject is a typed graph node; TAOAssoc a typed directed edge.
	TAOObject = tao.Object
	TAOAssoc  = tao.Assoc
	// TAOWorkload drives synthetic clients against a TAOStore and emits
	// per-data-type I/O series.
	TAOWorkload = tao.Workload
	// TAOWorkloadConfig configures the workload; TAOTypeMix is one data
	// type's request mix; TAOMixEvent scales a type's rates (an I/O
	// regression when the factor exceeds 1).
	TAOWorkloadConfig = tao.WorkloadConfig
	TAOTypeMix        = tao.TypeMix
	TAOMixEvent       = tao.MixEvent
)

// NewTAOStore returns an empty graph store.
func NewTAOStore() *TAOStore { return tao.NewStore() }

// NewTAOWorkload validates the config and returns a workload over store.
func NewTAOWorkload(cfg TAOWorkloadConfig, store *TAOStore) (*TAOWorkload, error) {
	return tao.NewWorkload(cfg, store)
}

// End-to-end tracing for endpoint-level regressions (paper §3).
type (
	// RequestTrace is one end-to-end request with spans across threads;
	// TraceSpan is one attributed unit of work.
	RequestTrace = tracing.RequestTrace
	TraceSpan    = tracing.TraceSpan
	// TraceAggregator accumulates request traces into per-endpoint cost
	// statistics.
	TraceAggregator = tracing.Aggregator
	// EndpointStats summarizes one endpoint over a bucket.
	EndpointStats = tracing.EndpointStats
)

// NewTraceAggregator returns an empty aggregator.
func NewTraceAggregator() *TraceAggregator { return tracing.NewAggregator() }

// Additional cost-domain detectors (paper §5.4).

// NewMetadataDomains returns the detector grouping subroutines that share
// a metadata prefix (supports SetFrameMetadata-annotated detection).
func NewMetadataDomains() DomainDetector { return core.MetadataDomains{} }

// NewCommitDomains returns the detector grouping all subroutines modified
// by one code commit.
func NewCommitDomains(log *ChangeLog, lookback time.Duration) DomainDetector {
	return core.CommitDomains{Log: log, Lookback: lookback}
}

// CheckEndpointCostShift applies the endpoint-name-prefix cost domain to
// an endpoint-level regression, reading sibling endpoint series from db.
func CheckEndpointCostShift(cfg CostShiftConfig, db *DB, r *Regression,
	windows WindowConfig, scanTime time.Time) core.CostShiftVerdict {
	return core.CheckEndpointCostShift(cfg, db, r, windows, scanTime)
}

// Canary analysis (paper §6.2 corroboration; §7's pre-production
// counterpart of in-production detection).
type (
	// CanaryAnalyzer compares canary and control sample groups.
	CanaryAnalyzer = canary.Analyzer
	// CanaryResult is one canary comparison's outcome.
	CanaryResult = canary.Result
)

// CorroborateWithCanary scores (in [0, 1]) how well a canary result
// supports an in-production regression report by magnitude and timing
// agreement.
func CorroborateWithCanary(r *Regression, c CanaryResult, timingWindow time.Duration) float64 {
	return canary.Corroborate(r, c, timingWindow)
}

// Distributed scanning (paper §5.1's serverless fan-out): a ScanWorker
// serves a local Detector over HTTP; a ScanCoordinator shards services
// across workers and merges results.
type (
	ScanWorker      = distributed.Worker
	ScanCoordinator = distributed.Coordinator
	ScanResponse    = distributed.ScanResponse
	WireRegression  = distributed.WireRegression
)

// NewScanWorker wraps a detector as an HTTP scan worker (mount it at
// /scan).
func NewScanWorker(name string, det *Detector) *ScanWorker {
	return distributed.NewWorker(name, det)
}

// NewScanCoordinator returns a coordinator over worker base URLs.
func NewScanCoordinator(workerURLs []string, client *http.Client) (*ScanCoordinator, error) {
	return distributed.NewCoordinator(workerURLs, client)
}

// Coordinator resilience layer: retry with jittered backoff, per-worker
// circuit breakers over a health-checked pool, failover to replica
// peers, and optional hedged requests against slow shards.
type (
	// ScanOptions tunes the coordinator's resilience layer (zero fields
	// take defaults; see DefaultScanOptions).
	ScanOptions = distributed.Options
	// ScanRetryPolicy is the per-worker retry budget and backoff shape.
	ScanRetryPolicy = resilience.Policy
	// ScanPoolConfig tunes worker health probing and circuit breakers.
	ScanPoolConfig = distributed.PoolConfig
	// ScanBreakerConfig is the per-worker circuit-breaker tuning.
	ScanBreakerConfig = resilience.BreakerConfig
)

// DefaultScanOptions is the coordinator's production posture: three
// attempts with jittered backoff, failover across the whole pool,
// hedging off.
func DefaultScanOptions() ScanOptions { return distributed.DefaultOptions() }

// NewScanCoordinatorWithOptions returns a coordinator with explicit
// resilience options.
func NewScanCoordinatorWithOptions(workerURLs []string, client *http.Client, opts ScanOptions) (*ScanCoordinator, error) {
	return distributed.NewCoordinatorWithOptions(workerURLs, client, opts)
}

// Durable ingestion: a write-ahead-logged, snapshot-compacted store, plus
// the streaming HTTP path that feeds it. A worker running with -data-dir
// recovers the store on start, serves POST /ingest, and acknowledges a
// batch only after the WAL accepted it — so a SIGKILL mid-ingest loses
// nothing acknowledged, and re-sent batches apply idempotently.
type (
	// Point is one (metric, time, value) sample, the unit of batch
	// ingestion.
	Point = tsdb.Point
	// DurableStore couples a recovered DB with its open write-ahead log.
	DurableStore = wal.Store
	// WALOptions tunes sync policy, group-commit batching, and segment
	// rotation; WALSyncPolicy picks when fsync happens relative to acks.
	WALOptions    = wal.Options
	WALSyncPolicy = wal.SyncPolicy
	// WALRecoverStats summarizes what recovery found.
	WALRecoverStats = wal.RecoverStats
	// IngestClient streams point batches to a worker's /ingest endpoint,
	// honoring its Retry-After backpressure hints.
	IngestClient = distributed.IngestClient
	// IngestHandler serves /ingest; IngestOptions tunes its backpressure;
	// IngestResult is the acknowledgment.
	IngestHandler = distributed.IngestHandler
	IngestOptions = distributed.IngestOptions
	IngestResult  = distributed.IngestResult
)

// WAL sync policies.
const (
	WALSyncBatch  = wal.SyncBatch  // fsync on group-commit thresholds (default)
	WALSyncAlways = wal.SyncAlways // fsync before every acknowledgment
	WALSyncNever  = wal.SyncNever  // leave syncing to the OS
)

// ParseWALSyncPolicy maps "always", "batch", or "never" to a policy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// OpenDurableStore recovers (or initializes) a durable store in dir and
// opens its WAL for appending.
func OpenDurableStore(dir string, step time.Duration, opts WALOptions) (*DurableStore, error) {
	return wal.OpenStore(dir, step, opts, tsdb.Options{}, nil)
}

// NewIngestHandler wraps store (a *DB or a *DurableStore) as the /ingest
// endpoint.
func NewIngestHandler(store distributed.IngestStore, opts IngestOptions) *IngestHandler {
	return distributed.NewIngestHandler(store, opts)
}

// NewIngestClient returns a streaming client for a worker base URL.
// client may be nil (http.DefaultClient).
func NewIngestClient(baseURL string, client *http.Client, policy ScanRetryPolicy) *IngestClient {
	return distributed.NewIngestClient(baseURL, client, policy, nil, 1)
}

// Real-profile front door: raw CPU profiles — gzipped pprof protobuf
// straight from runtime/pprof, or Brendan-Gregg folded stacks — parsed
// without external dependencies, folded into per-subroutine gCPU series,
// and diffed offline.
type (
	// PprofProfile is a decoded pprof protobuf profile.
	PprofProfile = pprofparse.Profile
	// PprofConvertOptions tunes the profile -> SampleSet conversion.
	PprofConvertOptions = pprofparse.ConvertOptions
	// ProfilesHandler serves POST /profiles on a worker; ProfilesOptions
	// tunes its backpressure and top-K cap; ProfilesResult is the
	// acknowledgment.
	ProfilesHandler = distributed.ProfilesHandler
	ProfilesOptions = distributed.ProfilesOptions
	ProfilesResult  = distributed.ProfilesResult
	// ProfileDiff is a subroutine-level comparison of two profiles;
	// ProfileDiffEntry one subroutine's movement; ProfileDiffOptions the
	// floors and caps.
	ProfileDiff        = report.ProfileDiff
	ProfileDiffEntry   = report.ProfileDiffEntry
	ProfileDiffOptions = report.DiffOptions
)

// ParsePprof decodes a pprof protobuf profile (gzipped or raw).
func ParsePprof(data []byte) (*PprofProfile, error) { return pprofparse.Parse(data) }

// ReadProfile parses either wire format (sniffed from contentType and the
// payload; pass contentType "" for pure sniffing) into a SampleSet,
// reporting which format it saw ("pprof" or "folded").
func ReadProfile(data []byte, contentType string) (*SampleSet, string, error) {
	return pprofparse.ReadAny(data, contentType, pprofparse.ConvertOptions{},
		stacktrace.FoldedOptions{})
}

// NewProfilesHandler wraps store (a *DB or a *DurableStore) as the
// /profiles endpoint, turning each uploaded profile into per-subroutine
// gCPU points.
func NewProfilesHandler(store distributed.IngestStore, opts ProfilesOptions) *ProfilesHandler {
	return distributed.NewProfilesHandler(store, opts)
}

// DiffProfiles compares two profiles subroutine by subroutine, ranking
// by self-gCPU movement.
func DiffProfiles(before, after *SampleSet, opts ProfileDiffOptions) *ProfileDiff {
	return report.DiffProfiles(before, after, opts)
}

// WriteProfileDiff renders a profile diff as deterministic plain text.
func WriteProfileDiff(w io.Writer, d *ProfileDiff) error {
	return report.WriteProfileDiff(w, d)
}

// Multi-tenant control plane: the long-lived REST front door — tenant
// registration with API-key auth, per-tenant namespacing into a shared
// durable store, quotas and token-bucket rate limits on the data plane,
// journaled async operations polled at /operations/{id}, and an admin
// API for tenant registration.
type (
	// ControlPlane is the server; ControlPlaneOptions configures it.
	ControlPlane        = controlplane.Server
	ControlPlaneOptions = controlplane.Options
	// ControlPlaneClient submits and polls async operations, honoring
	// the server's Retry-After hints.
	ControlPlaneClient = controlplane.Client
	// Tenant is one registered API consumer; TenantQuotas bounds its
	// footprint (series quota, request rate, burst).
	Tenant       = controlplane.Tenant
	TenantQuotas = controlplane.Quotas
	// AsyncOperation is one journaled long-running job; AsyncOpStatus
	// its lifecycle state.
	AsyncOperation = controlplane.Operation
	AsyncOpStatus  = controlplane.OpStatus
)

// Async operation lifecycle states and built-in kinds.
const (
	AsyncOpPending   = controlplane.OpPending
	AsyncOpRunning   = controlplane.OpRunning
	AsyncOpSucceeded = controlplane.OpSucceeded
	AsyncOpFailed    = controlplane.OpFailed

	AsyncOpKindBackfill = controlplane.OpKindBackfill
	AsyncOpKindSweep    = controlplane.OpKindSweep
)

// NewControlPlane opens (or crash-recovers) a control plane rooted at
// opts.DataDir.
func NewControlPlane(opts ControlPlaneOptions) (*ControlPlane, error) {
	return controlplane.NewServer(opts)
}
