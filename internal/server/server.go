// Package server exposes FLoS queries over HTTP — the deployment shape a
// downstream user actually wants: load the graph once, answer exact kNN
// queries from many clients.
//
// Endpoints:
//
//	GET /healthz            liveness
//	GET /stats              graph summary
//	GET /metrics            Prometheus text exposition (latency histograms
//	                        per endpoint and per measure, query/outcome/
//	                        cache/page-cache counters, runtime gauges);
//	                        ?format=json returns the JSON snapshot
//	GET /v1/topk            versioned query API: the legacy parameters plus
//	                        mode=exact|epsilon|anytime, epsilon=<gap budget>,
//	                        deadline=<Go duration>, and
//	                        kernel=auto|serial|parallel|staged (bound-solver
//	                        selection); the response envelope
//	                        carries api_version, the results, and the
//	                        certification block (mode, certified, achieved
//	                        gap, per-node score intervals). In anytime mode
//	                        an expiring deadline answers 200 with the
//	                        current top-k and certified=false — never 504.
//	GET /v1/unified         versioned unified query (same mode parameters);
//	                        per-family certification blocks
//	POST /v1/topk/batch     versioned batch; mode/epsilon in the body apply
//	                        to every member, certification per slot
//	POST /v1/graph/edges    versioned alias of /graph/edges
//	GET /topk?q=42&k=10&measure=rwr[&c=0.5][&L=10][&tau=1e-5][&tighten=0][&trace=1]
//	GET /unified?q=42&k=10[&c=0.5][&trace=1]
//	POST /graph/edges       {"ops":[{"op":"add","u":1,"v":5,"w":1.0},...]}
//	                        applies one atomic batch of edge mutations to a
//	                        live graph (flosd -live): a new snapshot is
//	                        published, cached results whose read footprint
//	                        the batch touched are invalidated surgically,
//	                        and the response carries the new epoch; 409 when
//	                        the server is not serving a live graph
//	POST /topk/batch        {"queries":[1,2,3],"k":10,"measure":"rwr",...}
//	                        answers many queries sharing one option set in a
//	                        single round trip; the response carries one slot
//	                        per query with either results or that query's
//	                        error, and cancellation mid-batch fills the
//	                        unfinished slots instead of failing the call
//	GET /debug/flos/slow       retained slow-query log (replayable with
//	                           `flos -replay`)
//	GET /debug/flos/flightrec  newest n flight-recorder records (?n=, def. 32)
//	GET /debug/flos/slo        multi-window SLO burn-rate snapshot
//	GET /debug/flos/traces     newest kept traces (?n=, def. 32) with tracer
//	                           counters; ?id=<32-hex trace id> returns that
//	                           trace's full span tree
//	GET /debug/flos/cache      cache-analytics snapshots (miss-ratio curves,
//	                           ghost list, working-set windows, top-N hot
//	                           blocks; ?n= bounds the heat ranking, def. 20)
//	                           for the page cache and the result cache
//
// trace=1 returns the per-iteration convergence trajectory (visited/
// boundary/candidate counts, the certification gap, per-phase timings)
// alongside the results; traced requests bypass the result cache.
//
// The legacy unversioned query routes (/topk, /topk/batch, /unified,
// /graph/edges) remain fully supported aliases with their behavior
// unchanged; they answer with a "Deprecation: true" header plus a Link to
// their /v1 successor, and each hit increments flos_legacy_requests_total
// so operators can watch migration progress.
//
// All responses are JSON; errors are {"error": "..."} with a 4xx/5xx
// status. Every response carries an X-Request-ID header, and each request
// emits one structured (log/slog) access record with latency and outcome.
// When span tracing is on (Config.Tracer), every request runs under a root
// "server" span: a client traceparent header (W3C Trace Context) is honored
// — its trace continued, its sampling decision respected — and a malformed
// one is rejected with the same structured 400 every endpoint uses. The
// response always echoes a traceparent header carrying the trace ID and the
// boundary span, and the access record carries the trace ID as the join key
// into /debug/flos/traces, the slow-query log, and histogram exemplars.
// Query execution is delegated to internal/qserve: a bounded worker pool
// answers queries concurrently on every backend (disk-resident stores
// included — their page cache is lock-striped and each worker holds its own
// reader view), requests beyond the admission queue are shed with
// 429 + Retry-After, and each query runs under the pool's deadline as well
// as the client's connection context.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
)

// Server wires a graph to HTTP handlers through a query-serving pool.
type Server struct {
	g     graph.Graph
	store *diskgraph.Store // non-nil for disk-resident graphs: /metrics reads page-fault counters
	pool  *qserve.Pool
	log   *slog.Logger

	// httpLat holds one latency histogram per known endpoint path —
	// bounded cardinality by construction.
	httpLat map[string]*obs.Histogram

	// Diagnostics plane (nil when disabled): flight recorder, SLO tracker,
	// and span tracer, shared with the pool.
	rec    *obs.FlightRecorder
	slo    *obs.SLOTracker
	tracer *trace.Tracer

	// resultLens is the result cache's analytics lens (nil when disabled);
	// the page cache's lens, when attached, is reached through s.store.
	resultLens *cachelens.Lens

	// Defaults applied when a request omits parameters.
	defaults measure.Params
	maxK     int
	maxBatch int

	// Serving-mode guardrails for the /v1 endpoints.
	maxEpsilon  float64
	maxDeadline time.Duration

	// legacyReq counts hits on each deprecated unversioned route, keyed by
	// path — the flos_legacy_requests_total counter operators watch while
	// migrating clients to /v1.
	legacyReq map[string]*atomic.Int64
}

// Config tunes the server.
type Config struct {
	// Workers is the query worker count (0 = GOMAXPROCS). Serialize is the
	// legacy switch for one-query-at-a-time operation and is equivalent to
	// Workers = 1; the sharded page cache made it unnecessary for disk
	// stores.
	Workers   int
	Serialize bool
	// QueueDepth bounds the admission queue (0 = 4×Workers); requests over
	// the bound receive 429 with a Retry-After header.
	QueueDepth int
	// CacheEntries bounds the result cache (0 = 1024, negative disables).
	CacheEntries int
	// Timeout is the per-query wall-clock budget (0 = none); queries over
	// budget receive 504.
	Timeout time.Duration
	// Defaults for omitted query parameters; zero value = paper defaults.
	Defaults measure.Params
	// MaxK caps requested k (0 = 1000).
	MaxK int
	// MaxBatch caps the query count of one /topk/batch request (0 = 256).
	MaxBatch int
	// MaxEpsilon caps the epsilon parameter of /v1 ε-certified requests
	// (0 = 1.0, negative disables ε mode). Note THT gaps are on the hop
	// scale (up to Params.L), so THT deployments may want a larger cap.
	MaxEpsilon float64
	// MaxDeadline caps the client-requested deadline of /v1 requests; longer
	// requests are clamped, not rejected (0 = 30s).
	MaxDeadline time.Duration
	// Logger receives structured access and query records; nil selects
	// slog.Default().
	Logger *slog.Logger
	// Recorder, when non-nil, is the query flight recorder: the pool records
	// every outcome into it, outliers are promoted into its slow-query log,
	// and GET /debug/flos/slow and /debug/flos/flightrec serve its contents.
	Recorder *obs.FlightRecorder
	// SLO, when non-nil, tracks multi-window availability and latency burn
	// rates, exported as flos_slo_* gauges and GET /debug/flos/slo.
	SLO *obs.SLOTracker
	// Tracer, when non-nil, turns on end-to-end span tracing: every request
	// runs under a root span, W3C traceparent context is honored and echoed,
	// kept traces are served by GET /debug/flos/traces, and trace IDs join
	// the flight recorder, slow-query log, exemplars, and access logs.
	Tracer *trace.Tracer
	// CacheLens, when non-nil, attaches cache analytics to the result cache:
	// miss-ratio curves, ghost list, working-set windows, and hot-key heat,
	// exported as flos_result_cache_* gauges and GET /debug/flos/cache. The
	// page cache's lens is attached on the store itself (Store.AttachLens)
	// before the server is built; the server discovers it there.
	CacheLens *cachelens.Lens
}

// New builds a Server for g and starts its worker pool; Close releases it.
func New(g graph.Graph, cfg Config) *Server {
	s := &Server{g: g, defaults: cfg.Defaults, maxK: cfg.MaxK, maxBatch: cfg.MaxBatch, log: cfg.Logger}
	if s.log == nil {
		s.log = slog.Default()
	}
	if s.defaults == (measure.Params{}) {
		s.defaults = measure.DefaultParams()
	}
	if s.maxK == 0 {
		s.maxK = 1000
	}
	if s.maxBatch == 0 {
		s.maxBatch = 256
	}
	s.maxEpsilon = cfg.MaxEpsilon
	if s.maxEpsilon == 0 {
		s.maxEpsilon = 1.0
	}
	s.maxDeadline = cfg.MaxDeadline
	if s.maxDeadline == 0 {
		s.maxDeadline = 30 * time.Second
	}
	s.legacyReq = make(map[string]*atomic.Int64, len(legacyPaths))
	for _, lp := range legacyPaths {
		s.legacyReq[lp.path] = &atomic.Int64{}
	}
	if st, ok := g.(*diskgraph.Store); ok {
		s.store = st
	}
	s.httpLat = make(map[string]*obs.Histogram)
	for _, ep := range endpointPaths {
		s.httpLat[ep] = &obs.Histogram{}
	}
	s.rec = cfg.Recorder
	s.slo = cfg.SLO
	s.tracer = cfg.Tracer
	s.resultLens = cfg.CacheLens
	workers := cfg.Workers
	if cfg.Serialize {
		workers = 1
	}
	s.pool = qserve.New(g, qserve.Config{
		Workers:      workers,
		QueueDepth:   cfg.QueueDepth,
		CacheEntries: cfg.CacheEntries,
		Timeout:      cfg.Timeout,
		Logger:       s.log,
		Recorder:     cfg.Recorder,
		SLO:          cfg.SLO,
		CacheLens:    cfg.CacheLens,
	})
	return s
}

// endpointPaths enumerates every served path; the per-endpoint latency
// histograms are keyed by it, keeping metric cardinality bounded.
var endpointPaths = []string{
	"/healthz", "/stats", "/metrics", "/topk", "/topk/batch", "/unified",
	"/graph/edges",
	"/v1/topk", "/v1/topk/batch", "/v1/unified", "/v1/graph/edges",
	"/debug/flos/slow", "/debug/flos/flightrec", "/debug/flos/slo",
	"/debug/flos/traces", "/debug/flos/cache",
}

// Pool exposes the serving pool (epoch bumps, metrics).
func (s *Server) Pool() *qserve.Pool { return s.pool }

// Close stops the worker pool.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the HTTP routing table wrapped in the observability
// middleware (request IDs, access logs, per-endpoint latency histograms).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/topk", s.handleV1TopK)
	mux.HandleFunc("/v1/topk/batch", s.handleV1TopKBatch)
	mux.HandleFunc("/v1/unified", s.handleV1Unified)
	mux.HandleFunc("/v1/graph/edges", s.handleGraphEdges)
	mux.HandleFunc("/topk", s.deprecated("/topk", s.handleTopK))
	mux.HandleFunc("/topk/batch", s.deprecated("/topk/batch", s.handleTopKBatch))
	mux.HandleFunc("/unified", s.deprecated("/unified", s.handleUnified))
	mux.HandleFunc("/graph/edges", s.deprecated("/graph/edges", s.handleGraphEdges))
	mux.HandleFunc("/debug/flos/slow", s.handleSlow)
	mux.HandleFunc("/debug/flos/flightrec", s.handleFlightRec)
	mux.HandleFunc("/debug/flos/slo", s.handleSLO)
	mux.HandleFunc("/debug/flos/traces", s.handleTraces)
	mux.HandleFunc("/debug/flos/cache", s.handleCacheLens)
	return s.instrument(mux)
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceStatus maps the HTTP status the handler wrote onto the trace outcome
// the tail sampler keys on: 429 is a shed admission, 504 a deadline, any
// other 5xx a failure.
func traceStatus(httpStatus int) string {
	switch {
	case httpStatus == http.StatusTooManyRequests:
		return "shed"
	case httpStatus == http.StatusGatewayTimeout:
		return "deadline"
	case httpStatus >= 500:
		return "failed"
	default:
		return "ok"
	}
}

// instrument assigns each request an ID (echoed in X-Request-ID), opens the
// request's trace at the W3C boundary, times it into the per-endpoint
// histogram, and emits one structured access record.
//
// The traceparent header is validated whether or not tracing is on — a
// malformed value is the client's error and gets the same structured 400 on
// every endpoint. A valid inbound header continues the caller's trace (its
// sampled flag honored); with the tracer disabled it is simply echoed back,
// so callers can rely on the header round-tripping either way.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()

		var parent trace.TraceParent
		var parentErr error
		if hv := r.Header.Get(trace.Header); hv != "" {
			parent, parentErr = trace.ParseTraceparent(hv)
		}
		var a *trace.Active
		var root *trace.SpanHandle
		if parentErr == nil {
			a = s.tracer.StartRequest(parent)
			if a != nil {
				root = a.StartSpan(a.RemoteParent(), r.Method+" "+r.URL.Path,
					trace.Str("request_id", id))
				root.SetKind("server")
				w.Header().Set(trace.Header, trace.TraceParent{
					Trace: a.TraceID(), Span: root.ID(), Sampled: a.HeadSampled(),
				}.String())
				r = r.WithContext(trace.NewContext(r.Context(), a, root.ID()))
			} else if !parent.IsZero() {
				// Tracer off: round-trip the validated client value untouched.
				w.Header().Set(trace.Header, r.Header.Get(trace.Header))
			}
		}

		if parentErr != nil {
			badRequest(sw, "bad traceparent: %v", parentErr)
		} else {
			next.ServeHTTP(sw, r)
		}
		elapsed := time.Since(start)
		root.SetAttrs(trace.Int("http.status", int64(sw.status)))
		root.End()
		a.Finish(traceStatus(sw.status))
		if h, ok := s.httpLat[r.URL.Path]; ok {
			h.Observe(elapsed)
		}
		logAttrs := []any{
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", sw.status,
			"latency", elapsed,
		}
		if a != nil {
			logAttrs = append(logAttrs, "trace", a.TraceIDString())
		}
		s.log.Info("request", logAttrs...)
	})
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...interface{}) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeQueryError maps a pool/engine error onto an HTTP status via the
// typed sentinels (errors.Is): invalid options or query node → 400,
// overload → 429, deadline → 504, cancellation/shutdown → 503, anything
// else → 500.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrInvalidOptions), errors.Is(err, core.ErrInvalidQuery):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, qserve.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "server overloaded, retry later"})
	case errors.Is(err, core.ErrDeadline):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
	case errors.Is(err, core.ErrCanceled), errors.Is(err, qserve.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// flightDumpBody is the payload of both flight-recorder endpoints; Records
// is newest-first. The same shape is accepted by `flos -replay`.
type flightDumpBody struct {
	// Recorded counts every query ever recorded; SlowTotal every promotion
	// into the slow-query log (both outlive the ring/log retention).
	Recorded  uint64              `json:"recorded"`
	SlowTotal uint64              `json:"slow_total"`
	Records   []*obs.FlightRecord `json:"records"`
}

// handleSlow serves the retained slow-query log: records promoted past the
// recorder's latency/visited thresholds, trajectories included, ready for
// offline replay with `flos -replay`.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled (-flightrec 0)"})
		return
	}
	writeJSON(w, http.StatusOK, flightDumpBody{
		Recorded:  s.rec.Recorded(),
		SlowTotal: s.rec.SlowCount(),
		Records:   s.rec.Slow(),
	})
}

// handleFlightRec serves the newest n records of the flight-recorder ring
// (?n=, default 32) — slow or not, the rolling view of recent traffic.
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled (-flightrec 0)"})
		return
	}
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 1 {
			badRequest(w, "bad n: %q", v)
			return
		}
	}
	writeJSON(w, http.StatusOK, flightDumpBody{
		Recorded:  s.rec.Recorded(),
		SlowTotal: s.rec.SlowCount(),
		Records:   s.rec.Last(n),
	})
}

// handleSLO serves the multi-window burn-rate snapshot.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "SLO tracking disabled"})
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// traceSummaryBody is one kept trace's row in the list view.
type traceSummaryBody struct {
	TraceID       string `json:"trace_id"`
	Root          string `json:"root"`
	Status        string `json:"status"`
	Sampled       string `json:"sampled"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationUS    int64  `json:"duration_us"`
	Spans         int    `json:"spans"`
}

// traceListBody is the GET /debug/flos/traces payload: tracer counters plus
// the newest kept traces (summaries; fetch one by ?id= for its span tree).
type traceListBody struct {
	Started  uint64             `json:"started"`
	KeptHead uint64             `json:"kept_head"`
	KeptTail uint64             `json:"kept_tail"`
	Dropped  uint64             `json:"dropped"`
	Traces   []traceSummaryBody `json:"traces"`
}

// traceDetailBody is the ?id= payload: the retained trace with its spans
// assembled into the parent-child tree.
type traceDetailBody struct {
	*trace.Trace
	Tree []*trace.SpanNode `json:"tree"`
}

// handleTraces serves the completed-trace ring: the list view with tracer
// counters, or — with ?id=<32-hex trace id> — one trace's full span tree.
// A trace that was never kept (head-dropped without a tail promotion) or has
// been lapped out of the ring answers 404.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "span tracing disabled (-trace-ring 0)"})
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr := s.tracer.Get(id)
		if tr == nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "trace not retained: " + id})
			return
		}
		writeJSON(w, http.StatusOK, traceDetailBody{Trace: tr, Tree: tr.Tree()})
		return
	}
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 1 {
			badRequest(w, "bad n: %q", v)
			return
		}
	}
	st := s.tracer.Stats()
	body := traceListBody{
		Started:  st.Started,
		KeptHead: st.KeptHead,
		KeptTail: st.KeptTail,
		Dropped:  st.Dropped,
		Traces:   []traceSummaryBody{},
	}
	for _, tr := range s.tracer.Last(n) {
		body.Traces = append(body.Traces, traceSummaryBody{
			TraceID:       tr.TraceID,
			Root:          tr.Root,
			Status:        tr.Status,
			Sampled:       tr.Sampled,
			StartUnixNano: tr.StartUnixNano,
			DurationUS:    tr.DurationUS,
			Spans:         len(tr.Spans),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// pageLens returns the page cache's analytics lens: attached on the disk
// store before the server was built, nil for memory-resident graphs or when
// analytics are off.
func (s *Server) pageLens() *cachelens.Lens {
	if s.store == nil {
		return nil
	}
	return s.store.Lens()
}

// cacheLensBody is the GET /debug/flos/cache payload: one analytics snapshot
// per instrumented cache. A cache without a lens is omitted, so the body also
// documents which planes are on.
type cacheLensBody struct {
	PageCache   *cachelens.Snapshot `json:"page_cache,omitempty"`
	ResultCache *cachelens.Snapshot `json:"result_cache,omitempty"`
}

// handleCacheLens serves the cache-analytics snapshots: miss-ratio curves,
// ghost-list would-have-hits, working-set windows, and the top-N hot blocks
// (?n=, default 20) for every cache with a lens attached. 404 when analytics
// are off everywhere — the same discipline as the other debug endpoints.
func (s *Server) handleCacheLens(w http.ResponseWriter, r *http.Request) {
	pl, rl := s.pageLens(), s.resultLens
	if pl == nil && rl == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "cache analytics disabled (-cachelens 0)"})
		return
	}
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 1 {
			badRequest(w, "bad n: %q", v)
			return
		}
	}
	var body cacheLensBody
	if pl != nil {
		snap := pl.Snapshot(n)
		body.PageCache = &snap
	}
	if rl != nil {
		snap := rl.Snapshot(n)
		body.ResultCache = &snap
	}
	writeJSON(w, http.StatusOK, body)
}

type statsBody struct {
	Nodes int   `json:"nodes"`
	Edges int64 `json:"edges"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, statsBody{Nodes: s.g.NumNodes(), Edges: s.g.NumEdges()})
}

// metricsBody is the /metrics?format=json payload.
type metricsBody struct {
	QueriesServed  int64   `json:"queries_served"`
	QueriesShed    int64   `json:"queries_shed"`
	Interrupted    int64   `json:"queries_interrupted"`
	Batches        int64   `json:"batches_served"`
	QueriesOK      int64   `json:"queries_ok"`
	QueriesHit     int64   `json:"queries_cache_answered"`
	Deadline       int64   `json:"queries_deadline"`
	Canceled       int64   `json:"queries_canceled"`
	Failed         int64   `json:"queries_failed"`
	Iterations     int64   `json:"engine_iterations"`
	VisitedNodes   int64   `json:"engine_visited_nodes"`
	Sweeps         int64   `json:"engine_sweeps"`
	P50Micros      int64   `json:"latency_p50_us"`
	P99Micros      int64   `json:"latency_p99_us"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_cap"`
	Workers        int     `json:"workers"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	Epoch          uint64  `json:"epoch"`

	// LegacyRequests counts hits on each deprecated unversioned route,
	// keyed by path — migration progress toward /v1.
	LegacyRequests map[string]int64 `json:"legacy_requests"`

	// Measures holds per-measure latency summaries for labels that saw
	// traffic.
	Measures map[string]measureLatencyBody `json:"measures,omitempty"`

	// Exemplars lists, for each overall-latency bucket holding one, the
	// request ID of its most recent sample — the join key into the flight
	// recorder, slow-query log, and access logs.
	Exemplars []exemplarBody `json:"latency_exemplars,omitempty"`

	// Live holds live-graph serving counters; present only when the server
	// runs a livegraph.LiveGraph (flosd -live).
	Live *liveMetricsBody `json:"live,omitempty"`

	// SLO is the burn-rate snapshot; present when SLO tracking is on.
	SLO *obs.SLOSnapshot `json:"slo,omitempty"`

	// Traces holds the span tracer's retention counters; present when span
	// tracing is on.
	Traces *traceMetricsBody `json:"traces,omitempty"`

	// Runtime gauges.
	Runtime runtimeBody `json:"runtime"`

	// Disk page-cache counters; present only for disk-resident graphs.
	Disk *diskMetricsBody `json:"disk,omitempty"`

	// CacheAnalytics mirrors GET /debug/flos/cache (top-20 heat ranking);
	// present when at least one cache has an analytics lens attached.
	CacheAnalytics *cacheLensBody `json:"cache_analytics,omitempty"`
}

type measureLatencyBody struct {
	Count     int64 `json:"count"`
	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`
	// CacheAnswered counts this measure's result-cache answers, which never
	// enter the latency histogram above.
	CacheAnswered int64 `json:"cache_answered,omitempty"`
}

// exemplarBody is one latency bucket's exemplar. TraceID, when the sampled
// request ran under span tracing, is the join key into /debug/flos/traces.
type exemplarBody struct {
	// BucketLEUS is the bucket's inclusive upper bound in microseconds.
	BucketLEUS int64  `json:"bucket_le_us"`
	ID         string `json:"id"`
	TraceID    string `json:"trace_id,omitempty"`
	LatencyUS  int64  `json:"latency_us"`
}

// exemplarBodies flattens a snapshot's per-bucket exemplars.
func exemplarBodies(snap obs.Snapshot) []exemplarBody {
	bounds := obs.BucketBoundsUS()
	var out []exemplarBody
	for i, ex := range snap.Exemplars {
		if ex != nil {
			out = append(out, exemplarBody{BucketLEUS: bounds[i], ID: ex.ID, TraceID: ex.TraceID, LatencyUS: ex.LatencyUS})
		}
	}
	return out
}

// traceMetricsBody is the metrics view of the tracer's retention counters.
type traceMetricsBody struct {
	Started  uint64 `json:"started"`
	KeptHead uint64 `json:"kept_head"`
	KeptTail uint64 `json:"kept_tail"`
	Dropped  uint64 `json:"dropped"`
}

// liveMetricsBody carries the live-graph serving counters: the snapshot
// chain gauges and the surgical-invalidation split.
type liveMetricsBody struct {
	SnapshotsAlive        int64 `json:"snapshots_alive"`
	SnapshotsTotal        int64 `json:"snapshots_total"`
	RowsCoWed             int64 `json:"rows_cowed"`
	OpsApplied            int64 `json:"ops_applied"`
	InvalidationsFull     int64 `json:"invalidations_full"`
	InvalidationsSurgical int64 `json:"invalidations_surgical"`
	CacheRetained         int64 `json:"cache_retained"`
	RecertifyHits         int64 `json:"recertify_hits"`

	// LastBatchSurgical / LastBatchRetained partition the cache entries the
	// most recent mutation batch saw: evicted surgically vs carried forward —
	// the per-epoch survivor gauge.
	LastBatchSurgical int64 `json:"last_batch_surgical"`
	LastBatchRetained int64 `json:"last_batch_retained"`
}

type runtimeBody struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

type diskMetricsBody struct {
	PageHits      int64 `json:"page_hits"`
	PageFaults    int64 `json:"page_faults"`
	FaultsDeduped int64 `json:"faults_deduped"`
	Evictions     int64 `json:"evictions"`
	ResidentBytes int64 `json:"resident_bytes"`
	ResidentPages int   `json:"resident_pages"`
	// ResidentPagesHWM is the all-time occupancy peak (summed over stripes):
	// well under budget means the budget never bound; at budget with a high
	// eviction rate means the working set does not fit.
	ResidentPagesHWM int `json:"resident_pages_hwm"`
	Shards           int `json:"shards"`

	// PerShard breaks the counters down by lock stripe.
	PerShard []shardBody `json:"per_shard"`
}

type shardBody struct {
	Shard            int   `json:"shard"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	FaultsDeduped    int64 `json:"faults_deduped"`
	Evictions        int64 `json:"evictions"`
	ResidentBytes    int64 `json:"resident_bytes"`
	ResidentPages    int   `json:"resident_pages"`
	ResidentPagesHWM int   `json:"resident_pages_hwm"`
}

func readRuntime() runtimeBody {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeBody{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.metricsJSON(w)
		return
	}
	s.metricsProm(w)
}

func (s *Server) metricsJSON(w http.ResponseWriter) {
	m := s.pool.Metrics()
	body := metricsBody{
		QueriesServed:  m.Served,
		QueriesShed:    m.Shed,
		Interrupted:    m.Interrupted,
		Batches:        m.Batches,
		QueriesOK:      m.OK,
		QueriesHit:     m.Hit,
		Deadline:       m.Deadline,
		Canceled:       m.Canceled,
		Failed:         m.Failed,
		Iterations:     m.IterationsTotal,
		VisitedNodes:   m.VisitedTotal,
		Sweeps:         m.SweepsTotal,
		P50Micros:      m.P50Micros,
		P99Micros:      m.P99Micros,
		QueueDepth:     m.QueueDepth,
		QueueCap:       m.QueueCap,
		Workers:        m.Workers,
		CacheHits:      m.CacheHits,
		CacheMisses:    m.CacheMisses,
		CacheEvictions: m.CacheEvictions,
		CacheEntries:   m.CacheEntries,
		CacheCapacity:  m.CacheCapacity,
		CacheHitRatio:  m.CacheHitRatio(),
		Epoch:          m.Epoch,
		Runtime:        readRuntime(),
	}
	body.LegacyRequests = make(map[string]int64, len(legacyPaths))
	for _, lp := range legacyPaths {
		body.LegacyRequests[lp.path] = s.legacyReq[lp.path].Load()
	}
	if len(m.LatencyByMeasure) > 0 {
		body.Measures = make(map[string]measureLatencyBody, len(m.LatencyByMeasure))
		for label, snap := range m.LatencyByMeasure {
			body.Measures[label] = measureLatencyBody{
				Count:         snap.Count,
				P50Micros:     snap.QuantileUS(0.50),
				P99Micros:     snap.QuantileUS(0.99),
				CacheAnswered: m.HitByMeasure[label],
			}
		}
	}
	body.Exemplars = exemplarBodies(m.Latency)
	if s.pool.Live() {
		body.Live = &liveMetricsBody{
			SnapshotsAlive:        m.SnapshotsAlive,
			SnapshotsTotal:        m.SnapshotsTotal,
			RowsCoWed:             m.RowsCoWed,
			OpsApplied:            m.OpsApplied,
			InvalidationsFull:     m.InvalidationsFull,
			InvalidationsSurgical: m.InvalidationsSurgical,
			CacheRetained:         m.CacheRetained,
			RecertifyHits:         m.RecertifyHits,
			LastBatchSurgical:     m.LastBatchSurgical,
			LastBatchRetained:     m.LastBatchRetained,
		}
	}
	if s.slo != nil {
		snap := s.slo.Snapshot()
		body.SLO = &snap
	}
	if s.tracer != nil {
		st := s.tracer.Stats()
		body.Traces = &traceMetricsBody{
			Started:  st.Started,
			KeptHead: st.KeptHead,
			KeptTail: st.KeptTail,
			Dropped:  st.Dropped,
		}
	}
	if s.store != nil {
		st := s.store.CacheStats()
		disk := &diskMetricsBody{
			PageHits:         st.Hits,
			PageFaults:       st.Misses,
			FaultsDeduped:    st.FaultsDeduped,
			Evictions:        st.Evictions,
			ResidentBytes:    st.ResidentBytes,
			ResidentPages:    st.ResidentPages,
			ResidentPagesHWM: st.ResidentPagesHWM,
			Shards:           st.Shards,
		}
		for _, ss := range s.store.ShardStats() {
			disk.PerShard = append(disk.PerShard, shardBody{
				Shard:            ss.Shard,
				Hits:             ss.Hits,
				Misses:           ss.Misses,
				FaultsDeduped:    ss.FaultsDeduped,
				Evictions:        ss.Evictions,
				ResidentBytes:    ss.ResidentBytes,
				ResidentPages:    ss.ResidentPages,
				ResidentPagesHWM: ss.ResidentPagesHWM,
			})
		}
		body.Disk = disk
	}
	if pl, rl := s.pageLens(), s.resultLens; pl != nil || rl != nil {
		ca := &cacheLensBody{}
		if pl != nil {
			snap := pl.Snapshot(20)
			ca.PageCache = &snap
		}
		if rl != nil {
			snap := rl.Snapshot(20)
			ca.ResultCache = &snap
		}
		body.CacheAnalytics = ca
	}
	writeJSON(w, http.StatusOK, body)
}

// metricsProm writes the Prometheus text exposition.
func (s *Server) metricsProm(w http.ResponseWriter) {
	m := s.pool.Metrics()
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewPromWriter(w)

	p.Counter("flos_queries_served_total", "Queries answered, cache hits and interrupted queries included.", nil, m.Served)
	p.Counter("flos_queries_shed_total", "Admissions refused with 429 because the queue was full.", nil, m.Shed)
	p.Counter("flos_queries_interrupted_total", "Queries ended early by context deadline or cancellation.", nil, m.Interrupted)
	p.Counter("flos_batches_served_total", "DoBatch calls; member queries count in flos_queries_served_total.", nil, m.Batches)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "ok"}, m.OK)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "hit"}, m.Hit)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "deadline"}, m.Deadline)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "canceled"}, m.Canceled)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "failed"}, m.Failed)
	p.Counter("flos_engine_iterations_total", "Local-expansion iterations across all searches.", nil, m.IterationsTotal)
	p.Counter("flos_engine_visited_nodes_total", "Visited-set sizes summed across all searches (the paper's locality metric).", nil, m.VisitedTotal)
	p.Counter("flos_engine_sweeps_total", "Bound-solver relaxations across all searches.", nil, m.SweepsTotal)

	for _, label := range []string{"php", "ei", "dht", "tht", "rwr", "unified"} {
		if snap, ok := m.LatencyByMeasure[label]; ok {
			p.Histogram("flos_query_latency_seconds", "Executed query latency by proximity measure.",
				map[string]string{"measure": label}, snap)
		}
	}
	for _, ep := range endpointPaths {
		if h := s.httpLat[ep]; h != nil && h.Count() > 0 {
			p.Histogram("flos_http_request_duration_seconds", "HTTP request latency by endpoint.",
				map[string]string{"endpoint": ep}, h.Snapshot())
		}
	}
	for _, lp := range legacyPaths {
		p.Counter("flos_legacy_requests_total", "Hits on deprecated unversioned routes (migrate callers to /v1).",
			map[string]string{"endpoint": lp.path}, s.legacyReq[lp.path].Load())
	}

	p.Gauge("flos_queue_depth", "Admitted queries waiting for a worker.", nil, float64(m.QueueDepth))
	p.Gauge("flos_queue_capacity", "Admission queue bound.", nil, float64(m.QueueCap))
	p.Gauge("flos_workers", "Query worker count.", nil, float64(m.Workers))
	p.Counter("flos_result_cache_hits_total", "Result-cache hits.", nil, m.CacheHits)
	p.Counter("flos_result_cache_misses_total", "Result-cache misses.", nil, m.CacheMisses)
	p.Counter("flos_result_cache_evictions_total", "Result-cache evictions.", nil, m.CacheEvictions)
	p.Gauge("flos_result_cache_entries", "Resident result-cache entries.", nil, float64(m.CacheEntries))
	p.Gauge("flos_result_cache_capacity", "Result-cache entry bound (entries/capacity = fill ratio).", nil, float64(m.CacheCapacity))
	p.Gauge("flos_graph_epoch", "Result-cache invalidation epoch.", nil, float64(m.Epoch))
	p.Gauge("flos_graph_nodes", "Nodes in the served graph.", nil, float64(s.g.NumNodes()))
	p.Gauge("flos_graph_edges", "Edges in the served graph.", nil, float64(s.g.NumEdges()))
	p.Counter("flos_cache_invalidations_total", "Result-cache invalidations by kind: full flushes (BumpEpoch) vs surgical per-entry evictions (Mutate footprint intersections).", map[string]string{"kind": "full"}, m.InvalidationsFull)
	p.Counter("flos_cache_invalidations_total", "Result-cache invalidations by kind: full flushes (BumpEpoch) vs surgical per-entry evictions (Mutate footprint intersections).", map[string]string{"kind": "surgical"}, m.InvalidationsSurgical)
	p.Counter("flos_cache_retained_total", "Cached results carried forward across mutation batches (footprint untouched).", nil, m.CacheRetained)
	p.Counter("flos_recertify_hits_total", "Stale entries re-certified by warm-started searches.", nil, m.RecertifyHits)
	if s.pool.Live() {
		p.Gauge("flos_live_snapshots_alive", "Live-graph snapshots currently referenced (current + pinned).", nil, float64(m.SnapshotsAlive))
		p.Counter("flos_live_snapshots_total", "Live-graph snapshots ever published.", nil, m.SnapshotsTotal)
		p.Counter("flos_live_rows_cowed_total", "Adjacency rows re-materialized copy-on-write.", nil, m.RowsCoWed)
		p.Counter("flos_live_ops_applied_total", "Edge mutations applied.", nil, m.OpsApplied)
		p.Gauge("flos_result_cache_last_batch_invalidated", "Entries the most recent mutation batch evicted surgically.", nil, float64(m.LastBatchSurgical))
		p.Gauge("flos_result_cache_last_batch_survivors", "Entries the most recent mutation batch carried forward untouched.", nil, float64(m.LastBatchRetained))
	}

	if s.store != nil {
		for _, ss := range s.store.ShardStats() {
			shard := map[string]string{"shard": strconv.Itoa(ss.Shard)}
			p.Counter("flos_page_cache_hits_total", "Page-cache hits by lock shard.", shard, ss.Hits)
			p.Counter("flos_page_cache_faults_total", "Page faults (disk reads) by lock shard.", shard, ss.Misses)
			p.Counter("flos_page_cache_faults_deduped_total", "Faults deduplicated singleflight-style by lock shard.", shard, ss.FaultsDeduped)
			p.Counter("flos_page_cache_evictions_total", "Pages evicted by LRU to stay under budget, by lock shard.", shard, ss.Evictions)
			p.Gauge("flos_page_cache_resident_bytes", "Resident page bytes by lock shard.", shard, float64(ss.ResidentBytes))
			p.Gauge("flos_page_cache_resident_pages", "Resident pages by lock shard.", shard, float64(ss.ResidentPages))
			p.Gauge("flos_page_cache_resident_pages_hwm", "All-time resident-page peak by lock shard.", shard, float64(ss.ResidentPagesHWM))
		}
	}
	if pl := s.pageLens(); pl != nil {
		lensProm(p, "flos_pagecache", "page cache", pl.Snapshot(0))
	}
	if s.resultLens != nil {
		lensProm(p, "flos_result_cache", "result cache", s.resultLens.Snapshot(0))
	}

	if s.slo != nil {
		snap := s.slo.Snapshot()
		p.Gauge("flos_slo_availability_objective", "Configured availability objective.", nil, snap.AvailabilityObjective)
		p.Gauge("flos_slo_latency_objective", "Configured latency objective (fraction under threshold).", nil, snap.LatencyObjective)
		p.Gauge("flos_slo_latency_threshold_seconds", "Latency SLO threshold.", nil, float64(snap.LatencyThresholdUS)/1e6)
		for _, win := range snap.Windows {
			lbl := map[string]string{"window": win.Window}
			p.Gauge("flos_slo_availability", "Rolling availability (1 when idle).", lbl, win.Availability)
			p.Gauge("flos_slo_availability_burn_rate", "Availability error-budget burn rate (1.0 = sustainable).", lbl, win.AvailabilityBurnRate)
			p.Gauge("flos_slo_latency_compliance", "Fraction of successful queries under the latency threshold.", lbl, win.LatencyCompliance)
			p.Gauge("flos_slo_latency_burn_rate", "Latency error-budget burn rate (1.0 = sustainable).", lbl, win.LatencyBurnRate)
		}
	}
	if s.rec != nil {
		p.Counter("flos_flightrec_recorded_total", "Queries captured by the flight recorder.", nil, int64(s.rec.Recorded()))
		p.Counter("flos_flightrec_slow_total", "Queries promoted into the slow-query log.", nil, int64(s.rec.SlowCount()))
	}
	if s.tracer != nil {
		ts := s.tracer.Stats()
		p.Counter("flos_traces_started_total", "Requests that opened a trace.", nil, int64(ts.Started))
		p.Counter("flos_traces_kept_total", "Traces retained, by sampling decision (head hash vs tail promotion).", map[string]string{"sampled": "head"}, int64(ts.KeptHead))
		p.Counter("flos_traces_kept_total", "Traces retained, by sampling decision (head hash vs tail promotion).", map[string]string{"sampled": "tail"}, int64(ts.KeptTail))
		p.Counter("flos_traces_dropped_total", "Traces recorded but not retained (head-dropped, no tail condition).", nil, int64(ts.Dropped))
	}

	rt := readRuntime()
	p.Gauge("go_goroutines", "Number of goroutines.", nil, float64(rt.Goroutines))
	p.Gauge("go_memstats_heap_alloc_bytes", "Heap bytes allocated and in use.", nil, float64(rt.HeapAllocBytes))
	p.Gauge("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.", nil, float64(rt.HeapSysBytes))
	p.Counter("go_gc_cycles_total", "Completed GC cycles.", nil, int64(rt.NumGC))
	if err := p.Err(); err != nil {
		s.log.Warn("metrics exposition write failed", "err", err)
	}
}

// scaleLabel renders an MRC capacity multiple as its metric label: 0.25 →
// "0.25x", 1 → "1x".
func scaleLabel(s float64) string {
	return strconv.FormatFloat(s, 'g', -1, 64) + "x"
}

// lensProm writes one cache-analytics lens as Prometheus gauges under the
// given metric prefix (flos_pagecache / flos_result_cache): the miss-ratio
// curve by scale, the working-set estimates by window, and the ghost list's
// directly measured would-have-hit counters.
func lensProm(p *obs.PromWriter, prefix, what string, snap cachelens.Snapshot) {
	for _, pt := range snap.Curve {
		p.Gauge(prefix+"_mrc_hit_ratio",
			"Estimated "+what+" hit ratio at a multiple of deployed capacity (SHARDS-sampled miss-ratio curve).",
			map[string]string{"scale": scaleLabel(pt.Scale)}, pt.EstHitRatio)
	}
	p.Gauge(prefix+"_lens_hit_ratio", "Measured "+what+" hit ratio over the lens's lifetime (calibration for the curve's 1x point).", nil, snap.HitRatio)
	p.Gauge(prefix+"_lens_sample_rate", "Lens spatial sampling rate (1 in N keys tracked).", nil, float64(snap.SampleRate))
	for _, ws := range snap.WorkingSet {
		win := map[string]string{"window": ws.Window}
		p.Gauge(prefix+"_wss_estimate", "Estimated distinct "+what+" entries touched in the last completed window (scaled sampled count).", win, float64(ws.DistinctEst))
	}
	p.Counter(prefix+"_ghost_evictions_total", "Capacity evictions recorded into the "+what+" ghost list.", nil, snap.Ghost.Evictions)
	p.Counter(prefix+"_ghost_would_have_hits_total", "Misses that would have hit a ~2x-capacity "+what+" (key still in the ghost list).", nil, snap.Ghost.WouldHaveHits)
	p.Gauge(prefix+"_ghost_hit_ratio_at_2x", "Directly measured "+what+" hit ratio at ~2x capacity ((hits + ghost hits) / accesses).", nil, snap.Ghost.HitRatioAt2x)
}

// rankedBody is one result entry.
type rankedBody struct {
	Node  graph.NodeID `json:"node"`
	Score float64      `json:"score"`
}

type topKBody struct {
	Query     graph.NodeID     `json:"query"`
	Measure   string           `json:"measure"`
	K         int              `json:"k"`
	Exact     bool             `json:"exact"`
	Cached    bool             `json:"cached"`
	Visited   int              `json:"visited"`
	Epoch     uint64           `json:"epoch,omitempty"`
	ElapsedUS int64            `json:"elapsed_us"`
	Results   []rankedBody     `json:"results"`
	Trace     []core.IterStats `json:"trace,omitempty"`
}

// parseCommon validates every parameter shared by the query endpoints — q,
// k, c, L, tau, tighten, trace — uniformly, so /topk and /unified reject
// malformed input the same way with a structured 400. Range validation
// happens here (not in the engine) so that errors surfacing later map to
// 5xx statuses.
func (s *Server) parseCommon(r *http.Request) (q graph.NodeID, k int, p measure.Params, tighten, trace bool, err error) {
	p = s.defaults
	tighten = true
	get := r.URL.Query().Get
	qi, err := strconv.Atoi(get("q"))
	if err != nil {
		return 0, 0, p, false, false, fmt.Errorf("missing or bad q: %v", err)
	}
	if qi < 0 || qi >= s.g.NumNodes() {
		return 0, 0, p, false, false, fmt.Errorf("q=%d outside [0,%d)", qi, s.g.NumNodes())
	}
	k = 10
	if v := get("k"); v != "" {
		if k, err = strconv.Atoi(v); err != nil {
			return 0, 0, p, false, false, fmt.Errorf("bad k: %v", err)
		}
	}
	if k < 1 || k > s.maxK {
		return 0, 0, p, false, false, fmt.Errorf("k=%d outside [1,%d]", k, s.maxK)
	}
	if v := get("c"); v != "" {
		if p.C, err = strconv.ParseFloat(v, 64); err != nil {
			return 0, 0, p, false, false, fmt.Errorf("bad c: %v", err)
		}
	}
	if v := get("L"); v != "" {
		if p.L, err = strconv.Atoi(v); err != nil {
			return 0, 0, p, false, false, fmt.Errorf("bad L: %v", err)
		}
	}
	if v := get("tau"); v != "" {
		if p.Tau, err = strconv.ParseFloat(v, 64); err != nil {
			return 0, 0, p, false, false, fmt.Errorf("bad tau: %v", err)
		}
	}
	if err := p.Validate(); err != nil {
		return 0, 0, p, false, false, err
	}
	if v := get("tighten"); v == "0" || strings.EqualFold(v, "false") {
		tighten = false
	}
	if v := get("trace"); v == "1" || strings.EqualFold(v, "true") {
		trace = true
	}
	return graph.NodeID(qi), k, p, tighten, trace, nil
}

func parseMeasure(s string) (measure.Kind, error) {
	switch strings.ToLower(s) {
	case "", "php":
		return measure.PHP, nil
	case "ei":
		return measure.EI, nil
	case "dht":
		return measure.DHT, nil
	case "tht":
		return measure.THT, nil
	case "rwr", "ppr":
		return measure.RWR, nil
	}
	return 0, fmt.Errorf("unknown measure %q", s)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q, k, p, tighten, trace, err := s.parseCommon(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	kind, err := parseMeasure(r.URL.Query().Get("measure"))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	opt := core.Options{K: k, Measure: kind, Params: p, Tighten: tighten, TieEps: 1e-9}
	var tc *core.TraceCollector
	if trace {
		tc = &core.TraceCollector{}
		opt.Tracer = tc
	}
	start := time.Now()
	resp, err := s.pool.Do(r.Context(), qserve.Request{ID: w.Header().Get("X-Request-ID"), Query: q, Opt: opt})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	res := resp.TopK
	body := topKBody{
		Query:     q,
		Measure:   kind.String(),
		K:         k,
		Exact:     res.Exact,
		Cached:    resp.CacheHit,
		Visited:   res.Visited,
		Epoch:     resp.Epoch,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	if tc != nil {
		body.Trace = tc.Iters
	}
	for _, rk := range res.TopK {
		body.Results = append(body.Results, rankedBody{Node: rk.Node, Score: rk.Score})
	}
	writeJSON(w, http.StatusOK, body)
}

// batchRequestBody is the POST /topk/batch payload: one option set shared
// by every query. Pointer fields distinguish "omitted" from zero.
type batchRequestBody struct {
	Queries []graph.NodeID `json:"queries"`
	K       int            `json:"k"`
	Measure string         `json:"measure"`
	C       *float64       `json:"c,omitempty"`
	L       *int           `json:"L,omitempty"`
	Tau     *float64       `json:"tau,omitempty"`
	Tighten *bool          `json:"tighten,omitempty"`
}

// batchItemBody is one query's slot of a batch response: results, or that
// query's error (out-of-range node, deadline, cancellation mid-batch).
type batchItemBody struct {
	Query   graph.NodeID `json:"query"`
	Error   string       `json:"error,omitempty"`
	Exact   bool         `json:"exact,omitempty"`
	Cached  bool         `json:"cached,omitempty"`
	Visited int          `json:"visited,omitempty"`
	Results []rankedBody `json:"results,omitempty"`
}

type batchBody struct {
	Measure   string          `json:"measure"`
	K         int             `json:"k"`
	Count     int             `json:"count"`
	Errors    int             `json:"errors"`
	ElapsedUS int64           `json:"elapsed_us"`
	Results   []batchItemBody `json:"results"`
}

// handleTopKBatch answers many queries sharing one option set in a single
// round trip. Batch-level mistakes (bad JSON, bad k/measure/params, too
// many queries) are a 400; everything per-query — including an out-of-range
// node or the client's deadline firing mid-batch — lands in that query's
// slot, so one bad query never poisons its neighbors.
func (s *Server) handleTopKBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var req batchRequestBody
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, "bad JSON body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, "queries must be non-empty")
		return
	}
	if len(req.Queries) > s.maxBatch {
		badRequest(w, "batch of %d queries exceeds limit %d", len(req.Queries), s.maxBatch)
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k < 1 || k > s.maxK {
		badRequest(w, "k=%d outside [1,%d]", k, s.maxK)
		return
	}
	kind, err := parseMeasure(req.Measure)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	p := s.defaults
	if req.C != nil {
		p.C = *req.C
	}
	if req.L != nil {
		p.L = *req.L
	}
	if req.Tau != nil {
		p.Tau = *req.Tau
	}
	if err := p.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}
	tighten := true
	if req.Tighten != nil {
		tighten = *req.Tighten
	}
	opt := core.Options{K: k, Measure: kind, Params: p, Tighten: tighten, TieEps: 1e-9}

	// Batch members share the HTTP request's ID with a slot suffix, so each
	// member's flight record and exemplar still joins back to the access log.
	id := w.Header().Get("X-Request-ID")
	reqs := make([]qserve.Request, len(req.Queries))
	for i, q := range req.Queries {
		reqs[i] = qserve.Request{ID: fmt.Sprintf("%s-%d", id, i), Query: q, Opt: opt}
	}
	start := time.Now()
	items := s.pool.DoBatch(r.Context(), reqs)
	body := batchBody{
		Measure:   kind.String(),
		K:         k,
		Count:     len(items),
		ElapsedUS: time.Since(start).Microseconds(),
		Results:   make([]batchItemBody, len(items)),
	}
	for i, it := range items {
		slot := batchItemBody{Query: req.Queries[i]}
		if it.Err != nil {
			slot.Error = it.Err.Error()
			body.Errors++
		} else {
			res := it.Resp.TopK
			slot.Exact = res.Exact
			slot.Cached = it.Resp.CacheHit
			slot.Visited = res.Visited
			for _, rk := range res.TopK {
				slot.Results = append(slot.Results, rankedBody{Node: rk.Node, Score: rk.Score})
			}
		}
		body.Results[i] = slot
	}
	writeJSON(w, http.StatusOK, body)
}

// edgeOpBody is one mutation of a POST /graph/edges batch.
type edgeOpBody struct {
	Op string       `json:"op"` // "add" | "remove" | "set"
	U  graph.NodeID `json:"u"`
	V  graph.NodeID `json:"v"`
	W  float64      `json:"w,omitempty"`
}

type graphEdgesRequestBody struct {
	Ops []edgeOpBody `json:"ops"`
}

type graphEdgesBody struct {
	Epoch     uint64 `json:"epoch"`
	Applied   int    `json:"applied"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// handleGraphEdges applies one atomic batch of edge mutations to a live
// graph. The batch publishes a new snapshot and surgically invalidates the
// result cache; in-flight queries keep running against their pinned
// snapshots. Not-live servers answer 409; an invalid batch (bad op name,
// out-of-range node, a weight that is not positive and finite, a degree that
// overflows, add of an existing edge, remove of a missing one) is rejected
// 400 with nothing applied.
func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	if !s.pool.Live() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "graph is not live (start flosd with -live)"})
		return
	}
	var req graphEdgesRequestBody
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, "bad JSON body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		badRequest(w, "ops must be non-empty")
		return
	}
	if len(req.Ops) > s.maxBatch {
		badRequest(w, "batch of %d ops exceeds limit %d", len(req.Ops), s.maxBatch)
		return
	}
	ops := make([]livegraph.EdgeOp, len(req.Ops))
	for i, ob := range req.Ops {
		op, err := livegraph.ParseOp(ob.Op)
		if err != nil {
			badRequest(w, "op %d: %v", i, err)
			return
		}
		ops[i] = livegraph.EdgeOp{Op: op, U: ob.U, V: ob.V, W: ob.W}
	}
	start := time.Now()
	epoch, err := s.pool.MutateCtx(r.Context(), ops)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, graphEdgesBody{
		Epoch:     epoch,
		Applied:   len(ops),
		ElapsedUS: time.Since(start).Microseconds(),
	})
}

type unifiedBody struct {
	Query     graph.NodeID     `json:"query"`
	K         int              `json:"k"`
	Exact     bool             `json:"exact"`
	Cached    bool             `json:"cached"`
	Visited   int              `json:"visited"`
	Epoch     uint64           `json:"epoch,omitempty"`
	ElapsedUS int64            `json:"elapsed_us"`
	PHPFamily []rankedBody     `json:"php_family"`
	RWR       []rankedBody     `json:"rwr"`
	Trace     []core.IterStats `json:"trace,omitempty"`
}

func (s *Server) handleUnified(w http.ResponseWriter, r *http.Request) {
	q, k, p, tighten, trace, err := s.parseCommon(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	opt := core.Options{K: k, Measure: measure.PHP, Params: p, Tighten: tighten, TieEps: 1e-9}
	var tc *core.TraceCollector
	if trace {
		tc = &core.TraceCollector{}
		opt.Tracer = tc
	}
	start := time.Now()
	resp, err := s.pool.Do(r.Context(), qserve.Request{ID: w.Header().Get("X-Request-ID"), Query: q, Opt: opt, Unified: true})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	res := resp.Unified
	body := unifiedBody{
		Query:     q,
		K:         k,
		Exact:     res.Exact,
		Cached:    resp.CacheHit,
		Visited:   res.Visited,
		Epoch:     resp.Epoch,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	if tc != nil {
		body.Trace = tc.Iters
	}
	for _, rk := range res.PHPFamily {
		body.PHPFamily = append(body.PHPFamily, rankedBody{Node: rk.Node, Score: rk.Score})
	}
	for _, rk := range res.RWR {
		body.RWR = append(body.RWR, rankedBody{Node: rk.Node, Score: rk.Score})
	}
	writeJSON(w, http.StatusOK, body)
}
