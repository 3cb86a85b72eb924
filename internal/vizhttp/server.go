// Package vizhttp implements vizserver's HTTP surface as an
// importable package: the /points, /render, /query, /knn, /photoz and
// /stats handlers over a core.SpatialDB, wired through per-endpoint
// QoS admission control (internal/qos). Command vizserver is a thin
// flag-and-lifecycle shell around it; tests — including the root
// integration tests — mount the same mux on httptest.Server.
//
// Admission control happens before execution, priced by the
// cost-based planner's zero-I/O estimate: each endpoint has a bounded
// concurrent-query semaphore with a bounded, timed wait queue, and
// requests that cannot be admitted are shed with 429 + Retry-After.
// Under saturation, requests whose estimated cost exceeds the
// degradation threshold are shed immediately (they never queue), so
// the expensive tail cannot convoy the cheap majority. NDJSON
// streaming writes carry a rolling write deadline, so one stalled
// consumer cannot pin cursors and pool pages forever.
package vizhttp

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/qos"
)

// Config tunes the server's QoS. The zero value enables admission
// control with defaults sized for a small host.
type Config struct {
	// MaxConcurrent bounds concurrently executing requests per
	// endpoint. 0 means 2×GOMAXPROCS; negative disables admission
	// control entirely.
	MaxConcurrent int
	// MaxQueue bounds the per-endpoint wait queue. 0 means
	// 8×MaxConcurrent.
	MaxQueue int
	// QueueTimeout bounds a queued request's wait. 0 means 2s.
	QueueTimeout time.Duration
	// ExpensiveCost is the graceful-degradation threshold in planner
	// cost units: under saturation, requests priced at or above it are
	// shed instead of queued. 0 means 8× the cost of a full catalog
	// scan; negative disables cost-based shedding.
	ExpensiveCost float64
	// StreamWriteTimeout is the rolling per-write deadline on NDJSON
	// streaming responses. 0 means 30s; negative disables it.
	StreamWriteTimeout time.Duration
	// Clock drives queue timeouts; tests inject a qos.FakeClock.
	// Nil means the real clock.
	Clock qos.Clock
}

// Server serves the visualization and query endpoints over one
// SpatialDB. All counters are atomics: /stats snapshots them without
// taking any lock that handlers contend on.
type Server struct {
	db  Backend
	cfg Config

	// Cumulative serving counters, all atomic (the /stats snapshot
	// must be race-free while handlers run).
	requests   atomic.Int64
	returned   atomic.Int64
	knnQueries atomic.Int64
	knnLeaves  atomic.Int64
	knnRows    atomic.Int64

	// Photo-z estimates computed for /photoz answers, and how many fell
	// back to the neighbour mean because their local polynomial fit
	// degenerated — a rising ratio flags regions where the §4.1 method
	// quietly degrades. An answer served from a result cache computed
	// nothing and counts nothing.
	photozEstimates    atomic.Int64
	photozFitFallbacks atomic.Int64

	// Requests answered straight from the result cache, which skip
	// admission control entirely (a hit costs no I/O and no slot).
	cacheServed atomic.Int64

	// Scan totals across served queries: pages skipped without a read
	// (kd subtrees and page zones proven empty), pages the scans
	// fetched, and magnitude strips their vectorized filters decoded.
	zonePagesSkipped  atomic.Int64
	zonePagesScanned  atomic.Int64
	zoneStripsDecoded atomic.Int64

	// Write-path counters: acknowledged insert batches and rows.
	inserts      atomic.Int64
	insertedRows atomic.Int64

	// Per-endpoint admission controllers; nil entries admit
	// everything.
	limiters map[string]*qos.Limiter
}

// limitedEndpoints are the endpoint names under admission control.
// /stats is deliberately absent: the overload dashboard must stay
// readable while everything else sheds. "insert" has its own class so
// shedding writes never blocks reads and vice versa.
var limitedEndpoints = []string{"points", "render", "query", "knn", "photoz", "insert", "sky"}

// New assembles a Server over a single-store db. See Config for the
// QoS defaults.
func New(db *core.SpatialDB, cfg Config) *Server {
	return NewBackend(db, cfg)
}

// NewBackend assembles a Server over any Backend — the shard
// coordinator mounts the same handlers this way.
func NewBackend(db Backend, cfg Config) *Server {
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 8 * cfg.MaxConcurrent
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.ExpensiveCost == 0 {
		// Eight full scans: every sane T1–T5 request prices far below
		// it, a 10k-point k=1000 kNN batch far above. A backend with no
		// rows to price gets a large constant.
		cfg.ExpensiveCost = 1 << 20
		if full := db.EstimateStatementCost(colorsql.Statement{Star: true, Limit: -1}); full > 0 {
			cfg.ExpensiveCost = 8 * full
		}
	}
	if cfg.StreamWriteTimeout == 0 {
		cfg.StreamWriteTimeout = 30 * time.Second
	}
	s := &Server{db: db, cfg: cfg, limiters: make(map[string]*qos.Limiter)}
	for _, name := range limitedEndpoints {
		s.limiters[name] = qos.NewLimiter(qos.Options{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.MaxQueue,
			QueueTimeout:  cfg.QueueTimeout,
			ExpensiveCost: max(cfg.ExpensiveCost, 0),
			Clock:         cfg.Clock,
		})
	}
	return s
}

// Limiter exposes the endpoint's admission controller ("points",
// "render", "query", "knn", "photoz"), nil when admission control is
// disabled. Tests use it to saturate an endpoint deterministically.
func (s *Server) Limiter(endpoint string) *qos.Limiter { return s.limiters[endpoint] }

// admit runs admission for a cost-aware endpoint; on rejection the
// response has already been written.
func (s *Server) admit(endpoint string, w http.ResponseWriter, r *http.Request, cost float64) (func(), bool) {
	return qos.HandleAdmit(s.limiters[endpoint], w, r, cost)
}

// Handler builds the route table. The sampling endpoints, whose cost
// is bounded by the point-budget cap rather than the request, sit
// behind the fixed-cost admission middleware; the cost-aware
// endpoints admit in-handler after pricing the parsed request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/points", qos.Middleware(s.limiters["points"], 0, http.HandlerFunc(s.handlePoints)))
	mux.Handle("/render", qos.Middleware(s.limiters["render"], 0, http.HandlerFunc(s.handleRender)))
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/knn", s.handleKnn)
	mux.HandleFunc("/photoz", s.handlePhotoz)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/sky", s.handleSky)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// countRequest tallies one served request.
func (s *Server) countRequest(rowsReturned int64) {
	s.requests.Add(1)
	s.returned.Add(rowsReturned)
}

// countZoneStats folds one query report's zone-map pruning counters
// into the serving totals.
func (s *Server) countZoneStats(rep core.Report) {
	s.zonePagesSkipped.Add(rep.PagesSkipped)
	s.zonePagesScanned.Add(rep.PagesScanned)
	s.zoneStripsDecoded.Add(rep.StripsDecoded)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	qosStats := make(map[string]qos.Counters, len(s.limiters))
	for name, l := range s.limiters {
		qosStats[name] = l.Counters()
	}
	// Backend-specific keys first (single store: diskReads, poolHits,
	// qcache, ingest, …; coordinator: per-shard fan-out stats), then
	// the server's own serving counters on top.
	out := s.db.BackendStats()
	for k, v := range map[string]any{
		"requests":           s.requests.Load(),
		"pointsReturned":     s.returned.Load(),
		"knnQueries":         s.knnQueries.Load(),
		"knnLeavesExamined":  s.knnLeaves.Load(),
		"knnRowsExamined":    s.knnRows.Load(),
		"photozEstimates":    s.photozEstimates.Load(),
		"photozFitFallbacks": s.photozFitFallbacks.Load(),
		"zonePagesSkipped":   s.zonePagesSkipped.Load(),
		"zonePagesScanned":   s.zonePagesScanned.Load(),
		"zoneStripsDecoded":  s.zoneStripsDecoded.Load(),
		"cacheServed":        s.cacheServed.Load(),
		"qos":                qosStats,
		"inserts":            s.inserts.Load(),
		"insertedRows":       s.insertedRows.Load(),
	} {
		out[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
