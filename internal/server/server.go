// Package server is the HTTP serving layer of WmXML — the daemon
// (cmd/wmxmld) that sits beside an XML database and watermarks data as
// it is published, the deployment shape the paper's Figure 1 sketches
// around the WmXML box.
//
// The server is multi-tenant: each owner registers once with a secret
// key, a watermark and a document-type spec, and every embedding's
// safeguarded query set Q lands in the receipt registry
// (internal/registry) — so detection is a single POST of the suspect
// document, with the queries resolved server-side instead of shipped
// around as q.json.
//
// Operational behavior:
//
//   - Authentication: the owner's secret key doubles as the API
//     credential. Every owner-scoped request (embed, detect, verify,
//     receipts) must carry `Authorization: Bearer <key>`, and
//     re-registering an existing owner id requires the current key —
//     first-time registration is the only open call. Keys are compared
//     in constant time over digests. Options.AllowUnauthenticated
//     disables all of this for trusted-network deployments only; the
//     key and the safeguarded query set Q are exactly the secrets the
//     watermark's security model rests on.
//   - Admission control: at most Workers embed/detect/verify requests
//     run at once; excess requests wait up to QueueTimeout for a slot
//     and are rejected with 503 afterwards. Request bodies are capped
//     at MaxBodyBytes and parsed with the xmltree MaxDepth guard.
//   - Execution runs through an internal/pipeline engine, so a request
//     that panics inside tree or plug-in code turns into a 422 for that
//     request, never a daemon crash.
//   - Repeated detections of the same suspect body hit a
//     content-hash-keyed LRU of parsed Document + DocumentIndex pairs,
//     skipping the reparse and index build that dominate indexed
//     detection.
//   - GET /metrics exposes counters and latency histograms in
//     Prometheus text format; GET /healthz is the liveness probe.
package server

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wmxml/internal/cluster"
	"wmxml/internal/config"
	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/deliver"
	"wmxml/internal/fingerprint"
	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/obs"
	"wmxml/internal/pipeline"
	"wmxml/internal/registry"
	"wmxml/internal/schema"
	"wmxml/internal/semantics"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// Options configures a Server.
type Options struct {
	// Registry stores owners and receipts; required.
	Registry registry.Store
	// Workers bounds concurrently executing operations (embed, detect,
	// verify). 0 means GOMAXPROCS.
	Workers int
	// QueueTimeout is how long a request waits for a worker slot before
	// a 503. 0 means 10s.
	QueueTimeout time.Duration
	// MaxBodyBytes caps request bodies. 0 means 32 MiB.
	MaxBodyBytes int64
	// MaxStreamBytes caps bodies of the streaming endpoints
	// (mode=stream), which exist precisely for documents larger than
	// MaxBodyBytes. 0 means 4 GiB.
	MaxStreamBytes int64
	// StreamChunkSize is the records-per-chunk setting of the streaming
	// endpoints (0 = the stream default).
	StreamChunkSize int
	// MaxDepth caps XML nesting on parse (0 = xmltree.DefaultMaxDepth).
	MaxDepth int
	// CacheEntries sizes the suspect-document LRU (0 = 128; negative
	// disables caching).
	CacheEntries int
	// CacheBytes caps the suspect-document LRU's total weight, where
	// each entry weighs its source body length (a proxy for tree+index
	// footprint). 0 = 256 MiB; negative removes the byte bound (entry
	// count still applies). A body larger than the cap is served but
	// never cached.
	CacheBytes int64
	// AllowUnauthenticated serves owner-scoped endpoints without the
	// Bearer-key check. Only for deployments where every network peer
	// is already trusted with every tenant's key and query sets.
	AllowUnauthenticated bool
	// Version is the build version string surfaced in /healthz
	// (ldflags-injected by the daemon; empty renders as "dev").
	Version string
	// Logger receives the access log and error records. nil is a valid
	// silent logger (the library/test default).
	Logger *obs.Logger
	// TraceRing is how many recent (and how many slowest) completed
	// request traces are retained for /debug/traces. 0 means 32;
	// negative disables span recording and retention entirely (request
	// ids and the access log still work).
	TraceRing int
	// SLODetectP99 is the default latency objective 99% of detect
	// requests must meet (per-owner overridable via the registry
	// record's "slo" field). 0 means 250ms; negative disables the
	// objective.
	SLODetectP99 time.Duration
	// SLOErrorRatio is the default tolerated 5xx fraction. 0 means
	// 0.01 (1%); negative disables the objective.
	SLOErrorRatio float64
	// HealthInterval is the runtime health collector's sampling period.
	// 0 means 10s; negative disables the collector (and the wmxmld_go_*
	// series).
	HealthInterval time.Duration
	// CaptureDir enables the anomaly watchdog: capture bundles are
	// written into this directory's bounded ring. Empty disables the
	// watchdog (SLO accounting and /debug/slo still work).
	CaptureDir string
	// CaptureMax bounds the bundle ring (0 = 8; oldest evicted).
	CaptureMax int
	// CaptureCooldown gates refiring of one (rule, owner) pair
	// (0 = 5m).
	CaptureCooldown time.Duration
	// CaptureCPUProfile is the CPU profile length per bundle
	// (0 = 5s; negative skips the CPU profile).
	CaptureCPUProfile time.Duration
	// WatchdogInterval is the rule evaluation period (0 = 10s).
	WatchdogInterval time.Duration
	// OwnerRefresh bounds how stale a compiled owner runtime may be
	// before the next request re-reads the registry record. 0 checks the
	// registry on every request (the single-node default — a local read
	// is cheap); set it when the registry is remote, where a per-request
	// GetOwner would put a network round trip on the hot path. The
	// credential check always runs, against the cached record.
	OwnerRefresh time.Duration
	// ClusterKey, when set, mounts the registry fleet API under
	// /internal/registry/ (Bearer-authenticated with this key) so peer
	// nodes can share this node's registry. Required on the node that
	// holds the authoritative store of a fleet.
	ClusterKey string
	// FleetNodes lists every node address (scheme://host:port) of the
	// fleet this server belongs to. With two or more nodes, owner-scoped
	// requests are routed by consistent hash: a request landing on the
	// wrong node is transparently proxied to the owner's home node, so
	// each owner's parsed documents warm exactly one cache. Empty or
	// single-entry means no routing (standalone node).
	FleetNodes []string
	// FleetSelf is this node's own address as it appears in FleetNodes;
	// required when FleetNodes has two or more entries.
	FleetSelf string
	// CacheFill, when non-nil, is consulted on a document-cache miss
	// before parsing locally — a hook for fleet deployments to borrow a
	// sibling node's parse. Returning ok=false falls through to the
	// local parse. Runs inside the miss singleflight, so concurrent
	// requests trigger it at most once per body.
	CacheFill func(sum [sha256.Size]byte, body []byte) (*xmltree.Node, *index.Index, bool)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 10 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxStreamBytes <= 0 {
		o.MaxStreamBytes = 4 << 30
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	if o.CacheEntries < 0 {
		o.CacheEntries = 0
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.CacheBytes < 0 {
		o.CacheBytes = 0
	}
	if o.Version == "" {
		o.Version = "dev"
	}
	if o.TraceRing == 0 {
		o.TraceRing = 32
	}
	if o.SLODetectP99 == 0 {
		o.SLODetectP99 = 250 * time.Millisecond
	}
	if o.SLOErrorRatio == 0 {
		o.SLOErrorRatio = 0.01
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 10 * time.Second
	}
	if o.CaptureCPUProfile == 0 {
		o.CaptureCPUProfile = 5 * time.Second
	}
	return o
}

// Server is the wmxmld HTTP API. Build with New, mount via Handler.
type Server struct {
	opts  Options
	reg   registry.Store
	slots chan struct{}
	cache *docCache
	bound *lru[boundKey, *deliver.Bound]
	dplan *lru[dplanKey, planEntry]
	met   *metrics
	log   *obs.Logger
	ring  *obs.TraceRing
	mux   *http.ServeMux

	health   *obs.RuntimeCollector
	slo      *sloEngine
	dog      *watchdog
	draining atomic.Bool

	// Fleet routing state; nil/empty on a standalone node.
	fleet   *cluster.Ring
	proxies map[string]*httputil.ReverseProxy

	mu       sync.Mutex
	runtimes map[string]*ownerRuntime
}

// ownerRuntime is the compiled per-tenant state: the working objects an
// owner's spec resolves to, plus the pipeline engine requests execute
// through.
type ownerRuntime struct {
	owner   registry.Owner
	cfg     core.Config
	eng     *pipeline.Engine
	fp      *fingerprint.System
	schema  *schema.Schema
	catalog semantics.Catalog

	// checked is when (UnixNano) the registry record was last compared
	// against this runtime; the Options.OwnerRefresh fast path reads it
	// to skip the per-request GetOwner against a remote registry.
	checked atomic.Int64
}

// New builds a Server over a registry.
func New(opts Options) (*Server, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("server: Options.Registry is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		reg:      opts.Registry,
		slots:    make(chan struct{}, opts.Workers),
		cache:    newDocCache(opts.CacheEntries, opts.CacheBytes),
		bound:    newLRU[boundKey, *deliver.Bound](64, 0),
		dplan:    newLRU[dplanKey, planEntry](decodePlanEntries, 0),
		met:      newMetrics(opts.Version),
		log:      opts.Logger,
		ring:     obs.NewTraceRing(opts.TraceRing),
		runtimes: make(map[string]*ownerRuntime),
	}
	defaults := sloObjectives{detectP99: opts.SLODetectP99, errorRatio: opts.SLOErrorRatio}
	if defaults.detectP99 < 0 {
		defaults.detectP99 = 0
	}
	if defaults.errorRatio < 0 {
		defaults.errorRatio = 0
	}
	s.slo = newSLOEngine(defaults, func(owner string) (sloObjectives, bool) {
		o, err := s.reg.GetOwner(owner)
		if err != nil {
			return sloObjectives{}, false
		}
		return sloObjectivesFrom(defaults, o.SLO), true
	})
	s.met.sloEval = func() []SLOOwnerEval { return s.slo.evaluateAll(time.Now().Unix()) }
	if opts.HealthInterval > 0 {
		s.health = obs.NewRuntimeCollector(opts.HealthInterval)
		s.health.Start()
		s.met.runtimeSnap = s.health.Snapshot
	}
	if opts.CaptureDir != "" {
		s.dog = newWatchdog(watchdogConfig{
			dir:        opts.CaptureDir,
			maxBundles: opts.CaptureMax,
			cooldown:   opts.CaptureCooldown,
			cpuProfile: opts.CaptureCPUProfile,
			interval:   opts.WatchdogInterval,
		}, s.slo, s.health, s.ring, s.met, s.log)
		s.dog.Start()
	}
	if err := s.buildFleet(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

// Close stops the server's background goroutines — the runtime health
// collector and the anomaly watchdog. Safe to call more than once; the
// HTTP handlers stay functional afterwards (only self-monitoring
// halts), so it is safe to Close before the listener fully drains.
func (s *Server) Close() {
	s.dog.Stop()
	s.health.Stop()
}

// SetDraining flips the readiness state served by GET /readyz. The
// daemon sets it before closing listeners on graceful shutdown so load
// balancers stop routing new work while in-flight requests finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// DebugHandler returns the operator-side debug surface:
//
//	GET /debug/traces   — the recent/slowest trace ring as JSON
//	GET /debug/slo      — per-owner SLO objectives and burn rates
//	GET /debug/captures — the anomaly capture-bundle ring index
//
// Traces and SLO pages carry owner ids, document sizes and verdicts,
// so this mounts on the admin/pprof listener, never the service mux.
//
// Contract: a disabled surface answers 404 with the service's standard
// {error, request_id} JSON envelope — /debug/traces when the ring is
// off (TraceRing < 0), /debug/captures when no --capture-dir is set —
// so probes can distinguish "disabled" from "empty" and operators get
// a request id to quote either way.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	if s.opts.TraceRing < 0 {
		mux.Handle("GET /debug/traces", debugDisabled("trace ring disabled (start wmxmld with --trace-ring > 0)"))
	} else {
		mux.Handle("GET /debug/traces", s.ring.Handler())
	}
	mux.HandleFunc("GET /debug/slo", s.handleDebugSLO)
	mux.Handle("GET /debug/captures", capturesHandler(s.opts.CaptureDir))
	return mux
}

// debugDisabled is the 404 envelope a disabled debug surface serves.
func debugDisabled(msg string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{
			"error":      msg,
			"request_id": obs.NewRequestID(),
		})
	})
}

// handleDebugSLO serves the SLO engine's full evaluation — the same
// computation the wmxmld_slo_* gauges render, per owner with the
// "_total" service aggregate first.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"defaults": map[string]any{
			"detect_p99_ms": float64(s.slo.defaults.detectP99.Microseconds()) / 1000,
			"error_ratio":   s.slo.defaults.errorRatio,
		},
		"windows": map[string]any{"fast_seconds": sloFastBuckets * sloFastBucketSecs, "slow_seconds": sloSlowBuckets * sloSlowBucketSecs},
		"owners":  s.slo.evaluateAll(time.Now().Unix()),
	})
}

// TraceRing exposes the completed-trace ring (nil when disabled) for
// tests and embedding daemons.
func (s *Server) TraceRing() *obs.TraceRing { return s.ring }

// CacheStats reports the suspect-document cache counters
// (hits, misses, evictions, entries) — tests read these without
// scraping /metrics.
func (s *Server) CacheStats() (hits, misses, evicts uint64, size int) {
	return s.met.cacheHits.Value(), s.met.cacheMiss.Value(), s.met.cacheEvict.Value(), s.cache.Len()
}

// CacheFlightStats reports the miss-singleflight counters: how many
// requests waited on another request's parse, and how many misses were
// satisfied by the peer-fill hook.
func (s *Server) CacheFlightStats() (coalesced, fills uint64) {
	return s.met.cacheCoalesced.Value(), s.met.cacheFill.Value()
}

// FleetStats reports how many requests this node proxied to their
// owner's home node (always 0 standalone).
func (s *Server) FleetStats() (proxied uint64) { return s.met.fleetProxied.Value() }

// PlanCacheStats reports the decode-plan cache counters (hits, misses,
// entries) for tests and diagnostics.
func (s *Server) PlanCacheStats() (hits, misses uint64, size int) {
	return s.met.decodePlanHits.Value(), s.met.decodePlanMiss.Value(), s.dplan.Len()
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	// Owner-scoped endpoints go through the fleet router (a no-op
	// standalone): the owner id — from the body, the path, or the query
	// string — decides which node's cache should absorb the work.
	s.mux.HandleFunc("POST /v1/owners", s.instrument("/v1/owners", s.routed(s.ownerFromBody, s.handlePutOwner)))
	s.mux.HandleFunc("GET /v1/owners/{id}/receipts", s.instrument("/v1/owners/{id}/receipts", s.routed(ownerFromPath, s.handleListReceipts)))
	s.mux.HandleFunc("GET /v1/owners/{id}/recipients", s.instrument("/v1/owners/{id}/recipients", s.routed(ownerFromPath, s.handleListRecipients)))
	s.mux.HandleFunc("POST /v1/embed", s.instrument("/v1/embed", s.routed(ownerFromQuery, s.handleEmbed)))
	s.mux.HandleFunc("POST /v1/detect", s.instrument("/v1/detect", s.routed(ownerFromQuery, s.handleDetect)))
	s.mux.HandleFunc("POST /v1/verify", s.instrument("/v1/verify", s.routed(ownerFromQuery, s.handleVerify)))
	s.mux.HandleFunc("POST /v1/fingerprint", s.instrument("/v1/fingerprint", s.routed(ownerFromQuery, s.handleFingerprint)))
	s.mux.HandleFunc("POST /v1/trace", s.instrument("/v1/trace", s.routed(ownerFromQuery, s.handleTrace)))
	s.mux.HandleFunc("POST /v1/deliver/plan", s.instrument("/v1/deliver/plan", s.routed(ownerFromQuery, s.handleDeliverPlan)))
	s.mux.HandleFunc("POST /v1/deliver", s.instrument("/v1/deliver", s.routed(ownerFromQuery, s.handleDeliver)))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics) // not instrumented: scrapes must not move the histograms
	if s.opts.ClusterKey != "" {
		// The fleet-internal registry API: peer nodes running a Remote
		// store point at this prefix. Deliberately outside /v1 — it is
		// node-to-node surface, authenticated by the cluster key, not a
		// tenant API.
		s.mux.Handle("/internal/registry/", http.StripPrefix("/internal/registry", registry.NewHTTPHandler(s.reg, s.opts.ClusterKey)))
	}
}

// statusWriter captures the response code and body byte count for
// instrumentation. bytes needs no synchronization: only the handler
// goroutine writes the response.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// the streaming endpoints can reach flush and full-duplex controls
// through the instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the whole per-request observability
// lifecycle: a Trace is opened (ingesting any W3C traceparent header —
// its trace-id becomes the request id — and echoing one back with a
// fresh span id), carried down through the request context so every
// layer can attach stage spans, and on completion folded into the
// route/stage/owner metrics, the trace ring and the access log.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.StartRequest(r.Header.Get("traceparent"), route)
		if s.opts.TraceRing < 0 {
			tr.DisableSpans()
		}
		hdr := w.Header()
		hdr.Set("X-Request-Id", tr.ID())
		hdr.Set("Traceparent", tr.Traceparent())
		r = r.WithContext(obs.NewContext(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		snap := tr.Finish(sw.code, d)
		s.met.finishRequest(snap, route, sw.code, d)
		s.slo.record(snap.Owner, snap.Op, sw.code, d)
		if s.opts.TraceRing >= 0 {
			s.ring.Add(snap)
		}
		s.log.Info("request",
			"request_id", snap.RequestID,
			"route", route,
			"status", sw.code,
			"dur_ms", float64(d.Microseconds())/1000,
			"owner", snap.Owner,
			"op", snap.Op,
			"doc_bytes", snap.DocBytes,
			"bytes_out", sw.bytes,
			"user_agent", r.UserAgent(),
			"verdict", snap.Verdict,
			"cache_hit", snap.CacheHit,
		)
	}
}

// httpError is an error with an HTTP status.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func errf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, err: fmt.Errorf(format, args...)}
}

// writeErr renders an error as the stable JSON envelope
// {error, request_id} with the right status. The full error chain —
// wrapped causes, file paths, internal identifiers — goes to the log
// at full fidelity; the response body carries the top-level message
// for client errors and only "internal error" for 5xx, plus the
// request id so an operator can join a client report to the log line
// and the trace.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		code = http.StatusRequestEntityTooLarge
	}
	tr := obs.FromContext(r.Context())
	if code >= http.StatusInternalServerError {
		s.log.Error("request failed", "request_id", tr.ID(), "route", tr.Route(), "status", code, "error", err.Error())
	} else {
		s.log.Warn("request rejected", "request_id", tr.ID(), "route", tr.Route(), "status", code, "error", err.Error())
	}
	msg := err.Error()
	if code >= http.StatusInternalServerError {
		msg = "internal error"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "request_id": tr.ID()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// acquire takes a worker slot, waiting up to QueueTimeout.
func (s *Server) acquire(r *http.Request) error {
	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		s.met.inflight.Add(1)
		return nil
	case <-r.Context().Done():
		return errf(499, "client went away: %v", r.Context().Err())
	case <-t.C:
		s.met.queueFull.Inc()
		return errf(http.StatusServiceUnavailable, "server busy: no worker slot within %s", s.opts.QueueTimeout)
	}
}

func (s *Server) release() {
	<-s.slots
	s.met.inflight.Add(-1)
}

// limitBody caps r's body at n bytes. MaxBytesReader gets the
// connection's own writer from under the middleware's wrappers, so an
// over-cap body also closes the connection after the reply, as net/http
// intends, rather than leaving its unread rest in the connection (which,
// on a full-duplex stream route, panics net/http's next-request read).
func limitBody(w http.ResponseWriter, r *http.Request, n int64) io.ReadCloser {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return http.MaxBytesReader(w, r.Body, n)
		}
		w = u.Unwrap()
	}
}

// readBody drains the (size-capped) request body. The read is a stage
// of its own: it waits on the client, and left unspanned it is the
// largest stretch of a request no stage accounts for.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	sp := obs.FromContext(r.Context()).StartSpan("body_read")
	body, err := io.ReadAll(limitBody(w, r, s.opts.MaxBodyBytes))
	sp.End()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.met.tooLarge.Inc()
		}
		return nil, err
	}
	if len(body) == 0 {
		return nil, errf(http.StatusBadRequest, "empty request body")
	}
	obs.FromContext(r.Context()).SetDocBytes(int64(len(body)))
	return body, nil
}

// parseDoc parses an XML body under the depth guard, through the byte
// tokenizer (interned names, slab nodes) and its encoding/xml hand-off.
func (s *Server) parseDoc(body []byte) (*xmltree.Node, error) {
	doc, err := xmltree.ParseBytes(body, xmltree.ParseOptions{MaxDepth: s.opts.MaxDepth})
	if err != nil {
		return nil, errf(http.StatusBadRequest, "parse document: %v", err)
	}
	return doc, nil
}

// bearerKey extracts the presented owner key from the Authorization
// header ("Bearer <key>"; the scheme is case-insensitive per RFC 9110,
// and some proxies normalize its casing).
func bearerKey(r *http.Request) string {
	scheme, rest, ok := strings.Cut(r.Header.Get("Authorization"), " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") {
		return ""
	}
	return strings.TrimSpace(rest)
}

// authorize checks that the request proves knowledge of the owner's
// secret key — the key doubles as the API credential, because anyone
// holding it already holds everything the watermark's security rests
// on. Digest comparison keeps the check constant-time in both content
// and length.
func (s *Server) authorize(r *http.Request, o registry.Owner) error {
	if s.opts.AllowUnauthenticated {
		return nil
	}
	got := bearerKey(r)
	if got == "" {
		return errf(http.StatusUnauthorized, "missing credentials: send Authorization: Bearer <owner key>")
	}
	a, b := sha256.Sum256([]byte(got)), sha256.Sum256([]byte(o.Key))
	if subtle.ConstantTimeCompare(a[:], b[:]) != 1 {
		return errf(http.StatusUnauthorized, "wrong key for owner %q", o.ID)
	}
	return nil
}

// sameOwner reports whether a compiled runtime's owner record still
// matches the registry's. Every field the runtime is built from counts
// — including Dataset and the raw Spec bytes, which can change
// out-of-band when the registry file is replaced under a running
// daemon.
func sameOwner(a, b registry.Owner) bool {
	return a.ID == b.ID && a.CreatedUnix == b.CreatedUnix && a.Key == b.Key &&
		a.Mark == b.Mark && a.Gamma == b.Gamma && a.Dataset == b.Dataset &&
		bytes.Equal(a.Spec, b.Spec) && sameSLO(a.SLO, b.SLO)
}

// sameSLO compares owner SLO overrides (either side may be nil).
func sameSLO(a, b *registry.SLOOverride) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// runtimeFor resolves an owner id to its compiled runtime, building
// and caching on first use. The request credential is checked against
// the owner record BEFORE any runtime work, so unauthenticated peers
// never trigger the comparatively expensive spec compile. Owner ids
// themselves are not secrets (they ride in URLs and receipts), so an
// unknown id stays a 404 rather than being folded into the 401.
func (s *Server) runtimeFor(r *http.Request, id string) (*ownerRuntime, error) {
	if id == "" {
		return nil, errf(http.StatusBadRequest, "owner query parameter is required")
	}
	// Staleness fast path: with OwnerRefresh set, a recently-checked
	// runtime is trusted without re-reading the registry. The credential
	// still has to match the cached record — the bound trades freshness
	// of the record, never the authentication.
	if s.opts.OwnerRefresh > 0 {
		s.mu.Lock()
		rt, ok := s.runtimes[id]
		s.mu.Unlock()
		if ok && time.Now().UnixNano()-rt.checked.Load() < int64(s.opts.OwnerRefresh) {
			if err := s.authorize(r, rt.owner); err != nil {
				return nil, err
			}
			obs.FromContext(r.Context()).SetOwner(id)
			return rt, nil
		}
	}
	o, err := s.reg.GetOwner(id)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return nil, errf(http.StatusNotFound, "unknown owner %q", id)
		}
		return nil, err
	}
	if err := s.authorize(r, o); err != nil {
		return nil, err
	}
	obs.FromContext(r.Context()).SetOwner(id)
	s.mu.Lock()
	rt, ok := s.runtimes[id]
	s.mu.Unlock()
	if ok && sameOwner(rt.owner, o) {
		rt.checked.Store(time.Now().UnixNano())
		return rt, nil
	}
	rt, err = s.buildRuntime(o)
	if err != nil {
		return nil, err
	}
	rt.checked.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.runtimes[id] = rt
	s.mu.Unlock()
	// The record changed under us (out-of-band registry replacement):
	// drop the cached SLO objectives along with the stale runtime.
	s.slo.invalidate(id)
	return rt, nil
}

// buildRuntime compiles an owner record into working objects.
func (s *Server) buildRuntime(o registry.Owner) (*ownerRuntime, error) {
	var (
		sch     *schema.Schema
		cat     semantics.Catalog
		targets []string
	)
	switch {
	case o.Dataset != "":
		// Only the schema/catalog/targets matter; the generated
		// document is discarded, so resolve the smallest instance.
		ds, err := datagen.Preset(o.Dataset, 1, 0)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "owner %q: %v", o.ID, err)
		}
		sch, cat, targets = ds.Schema, ds.Catalog, ds.Targets
	default:
		spec, err := config.Parse(o.Spec)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "owner %q: %v", o.ID, err)
		}
		sch, err = spec.BuildSchema()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "owner %q: %v", o.ID, err)
		}
		cat = spec.BuildCatalog()
		targets = spec.Targets
	}
	cfg := core.Config{
		Key:      []byte(o.Key),
		Mark:     wmark.FromText(o.Mark),
		Gamma:    o.Gamma,
		Schema:   sch,
		Catalog:  cat,
		Identity: identity.Options{Targets: targets},
	}
	fp, err := fingerprint.New(fingerprint.Options{
		Key:     []byte(o.Key),
		Schema:  sch,
		Catalog: cat,
		Targets: targets,
		Gamma:   o.Gamma,
	})
	if err != nil {
		return nil, errf(http.StatusBadRequest, "owner %q: %v", o.ID, err)
	}
	return &ownerRuntime{
		owner:   o,
		cfg:     cfg,
		eng:     pipeline.New(cfg, pipeline.Options{Workers: 1}),
		fp:      fp,
		schema:  sch,
		catalog: cat,
	}, nil
}

// --- handlers ---

// ownerResponse acknowledges a registration.
type ownerResponse struct {
	ID       string `json:"id"`
	Dataset  string `json:"dataset,omitempty"`
	Gamma    int    `json:"gamma,omitempty"`
	Receipts int    `json:"receipts"`
}

// handlePutOwner registers (or re-registers) a tenant. First-time
// registration is open; replacing an existing owner (key rotation,
// spec change) must prove knowledge of the key it replaces, or any
// network peer could hijack the tenant with its own key and mark. The
// runtime is built eagerly so a broken spec fails registration, not
// the first embed.
func (s *Server) handlePutOwner(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var o registry.Owner
	if err := json.Unmarshal(body, &o); err != nil {
		s.writeErr(w, r, errf(http.StatusBadRequest, "parse owner: %v", err))
		return
	}
	if o.CreatedUnix == 0 {
		o.CreatedUnix = time.Now().Unix()
	}
	if err := o.Validate(); err != nil {
		s.writeErr(w, r, errf(http.StatusBadRequest, "%v", err))
		return
	}
	tr := obs.FromContext(r.Context())
	tr.SetOp("register")
	tr.SetOwner(o.ID)
	// Cheap fast-fail before the spec compile: unauthenticated peers
	// must not get to burn a buildRuntime against an existing id. The
	// authoritative check is repeated under the lock below.
	if existing, gerr := s.reg.GetOwner(o.ID); gerr == nil {
		if err := s.authorize(r, existing); err != nil {
			s.writeErr(w, r, errf(http.StatusUnauthorized, "owner %q exists; re-registration requires Authorization: Bearer <current key>", o.ID))
			return
		}
	} else if !errors.Is(gerr, registry.ErrNotFound) {
		s.writeErr(w, r, gerr)
		return
	}
	rt, err := s.buildRuntime(o)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	// The exists-check and the Put must be one atomic step: two
	// concurrent registrations of the same fresh id would otherwise
	// both pass the not-found check and the later Put would silently
	// overwrite the earlier key — a hijack window on first
	// registration. s.mu serializes every registration in this process,
	// and the registry file lock guarantees this process is the only
	// writer.
	s.mu.Lock()
	if existing, gerr := s.reg.GetOwner(o.ID); gerr == nil {
		if err := s.authorize(r, existing); err != nil {
			s.mu.Unlock()
			s.writeErr(w, r, errf(http.StatusUnauthorized, "owner %q exists; re-registration requires Authorization: Bearer <current key>", o.ID))
			return
		}
	} else if !errors.Is(gerr, registry.ErrNotFound) {
		s.mu.Unlock()
		s.writeErr(w, r, gerr)
		return
	}
	if err := s.reg.PutOwner(o); err != nil {
		s.mu.Unlock()
		s.writeErr(w, r, err)
		return
	}
	s.runtimes[o.ID] = rt
	s.mu.Unlock()
	// Re-registration is how operators tune a tenant's SLO override;
	// make the new objectives take effect on the next request.
	s.slo.invalidate(o.ID)
	n := 0
	if recs, err := s.reg.ListReceipts(o.ID); err == nil {
		n = len(recs)
	}
	writeJSON(w, http.StatusOK, ownerResponse{ID: o.ID, Dataset: o.Dataset, Gamma: o.Gamma, Receipts: n})
}

// receiptMeta is the receipt listing entry; Records is elided unless
// ?full=1.
type receiptMeta struct {
	ID             string             `json:"id"`
	Doc            string             `json:"doc,omitempty"`
	Recipient      string             `json:"recipient,omitempty"`
	CreatedUnix    int64              `json:"created_unix"`
	QueryCount     int                `json:"query_count"`
	BandwidthUnits int                `json:"bandwidth_units"`
	Carriers       int                `json:"carriers"`
	ValuesWritten  int                `json:"values_written"`
	Records        []core.QueryRecord `json:"records,omitempty"`
}

func (s *Server) handleListReceipts(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	o, err := s.reg.GetOwner(id)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			s.writeErr(w, r, errf(http.StatusNotFound, "unknown owner %q", id))
			return
		}
		s.writeErr(w, r, err)
		return
	}
	// Receipts are the safeguarded query sets; even the metadata listing
	// is for the key holder only.
	if err := s.authorize(r, o); err != nil {
		s.writeErr(w, r, err)
		return
	}
	obs.FromContext(r.Context()).SetOwner(id)
	recs, err := s.reg.ListReceipts(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	full := r.URL.Query().Get("full") == "1"
	out := make([]receiptMeta, len(recs))
	for i, rc := range recs {
		out[i] = receiptMeta{
			ID: rc.ID, Doc: rc.Doc, Recipient: rc.Recipient, CreatedUnix: rc.CreatedUnix,
			QueryCount:     len(rc.Records),
			BandwidthUnits: rc.BandwidthUnits, Carriers: rc.Carriers, ValuesWritten: rc.ValuesWritten,
		}
		if full {
			out[i].Records = rc.Records
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"owner": id, "receipts": out})
}

// handleEmbed watermarks the XML request body under the owner's key and
// mark, stores the receipt, and returns the marked document. The
// receipt id is derived from the owner and body hash, so retrying the
// same embed is idempotent.
func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	tr.SetOp("embed")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if r.URL.Query().Get("mode") == "stream" {
		s.handleEmbedStream(w, r, rt, ownerID)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()
	psp := tr.StartSpan("parse")
	doc, err := s.parseDoc(body)
	psp.End()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	// The receipt id binds the body to the owner configuration that
	// marked it: retrying the identical embed dedupes (deterministic
	// embedding makes the receipts byte-identical), while re-embedding
	// after a key/mark/gamma rotation gets a fresh receipt instead of
	// silently colliding with the stale one. 128 id bits keep the
	// accidental-collision probability negligible at any realistic
	// receipt count.
	idh := sha256.New()
	fmt.Fprintf(idh, "%s\x1f%s\x1f%s\x1f%d\x1f", rt.owner.ID, rt.owner.Key, rt.owner.Mark, rt.owner.Gamma)
	idh.Write(body)
	receiptID := "r-" + hex.EncodeToString(idh.Sum(nil))[:32]
	label := r.URL.Query().Get("doc")

	outs, err := rt.eng.EmbedAll(r.Context(), []pipeline.Job{{ID: receiptID, Doc: doc}})
	if err != nil {
		s.writeErr(w, r, errf(499, "cancelled: %v", err))
		return
	}
	out := outs[0]
	if out.Err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "embed: %v", out.Err))
		return
	}
	rec := registry.Receipt{
		ID: receiptID, Owner: ownerID, Doc: label,
		CreatedUnix:    time.Now().Unix(),
		Records:        out.Result.Records,
		BandwidthUnits: out.Result.Bandwidth.Units,
		Carriers:       out.Result.Carriers,
		ValuesWritten:  out.Result.Embedded,
	}
	rsp := tr.StartSpan("registry")
	if err := s.reg.AddReceipt(rec); err != nil {
		if !errors.Is(err, registry.ErrDuplicate) {
			s.writeErr(w, r, errf(http.StatusInternalServerError, "store receipt: %v", err))
			return
		}
		// Same id under this owner: an idempotent retry of the identical
		// embed stores identical records. Anything else is an id
		// collision between different documents — refuse rather than
		// hand back a receipt whose queries target another document.
		stored, gerr := s.reg.GetReceipt(ownerID, receiptID)
		if gerr != nil || !slices.Equal(stored.Records, rec.Records) {
			s.writeErr(w, r, errf(http.StatusInternalServerError, "receipt id collision on %q: stored records do not match this embedding", receiptID))
			return
		}
	}
	rsp.End()
	s.met.embeds.Inc()
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(out.Result.Carriers))
	h.Set("X-Wmxml-Bandwidth-Units", fmt.Sprint(out.Result.Bandwidth.Units))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(out.Result.Embedded))
	w.WriteHeader(http.StatusOK)
	xmltree.Serialize(w, doc, xmltree.SerializeOptions{Indent: "  "})
}

// detectResponse is the JSON verdict of one detection pass.
type detectResponse struct {
	Owner             string  `json:"owner"`
	Mode              string  `json:"mode"` // "receipts" or "blind"
	Receipt           string  `json:"receipt,omitempty"`
	ReceiptsTried     int     `json:"receipts_tried"`
	Detected          bool    `json:"detected"`
	MatchFraction     float64 `json:"match_fraction"`
	Coverage          float64 `json:"coverage"`
	Sigma             float64 `json:"sigma"`
	FalsePositiveRate float64 `json:"false_positive_rate"`
	RecoveredText     string  `json:"recovered_text,omitempty"`
	QueriesRun        int     `json:"queries_run"`
	QueryMisses       int     `json:"query_misses"`
	CacheHit          bool    `json:"cache_hit"`
	ElapsedMS         float64 `json:"elapsed_ms"`
}

// suspectDoc resolves the request body to a parsed document and index,
// through the content-hash cache. The lookup, the parse and the index
// build each get a stage span on the request trace, so a cold detect
// shows where its time went (and the cache span's note says
// hit/miss/coalesced).
//
// Cold lookups are singleflighted on the body hash: under N concurrent
// detects of the same uncached body, exactly one request parses and
// indexes while the other N-1 wait on its flight and share the result.
// Before the flight, each of the N paid the full parse+index cost — the
// miss stampede that made a cache-cold burst N times as expensive as it
// needed to be. With the cache disabled (CacheEntries < 0) there is
// nothing to populate, so every request does its own work, as before.
func (s *Server) suspectDoc(body []byte, tr *obs.Trace) (cachedDoc, bool, error) {
	sum := sha256.Sum256(body)
	csp := tr.StartSpan("cache")
	cd, ok := s.cache.Get(sum)
	if ok {
		csp.EndNote("hit")
		tr.SetCacheHit(true)
		s.met.cacheHits.Inc()
		return cd, true, nil
	}
	if s.opts.CacheEntries == 0 {
		csp.EndNote("miss")
		s.met.cacheMiss.Inc()
		return s.fillDoc(sum, body, tr)
	}
	call, leader := s.cache.join(sum)
	if !leader {
		csp.EndNote("coalesced")
		s.met.cacheCoalesced.Inc()
		call.wg.Wait()
		if call.err != nil {
			return cachedDoc{}, false, call.err
		}
		tr.SetCacheHit(true)
		return call.cd, true, nil
	}
	// Leader double-check: between our miss and winning the flight, a
	// previous leader may have completed and populated the cache.
	if cd, ok := s.cache.Get(sum); ok {
		s.cache.complete(sum, call, cd, nil)
		csp.EndNote("hit")
		tr.SetCacheHit(true)
		s.met.cacheHits.Inc()
		return cd, true, nil
	}
	csp.EndNote("miss")
	s.met.cacheMiss.Inc()
	cd, hit, err := s.fillDoc(sum, body, tr)
	s.cache.complete(sum, call, cd, err)
	return cd, hit, err
}

// fillDoc does the actual work of a cache miss: consult the peer-fill
// hook if one is wired (a fleet node borrowing a sibling's parse),
// otherwise parse and index locally, then populate the cache.
func (s *Server) fillDoc(sum [sha256.Size]byte, body []byte, tr *obs.Trace) (cachedDoc, bool, error) {
	if s.opts.CacheFill != nil {
		if doc, ix, ok := s.opts.CacheFill(sum, body); ok && doc != nil && ix != nil {
			s.met.cacheFill.Inc()
			cd := cachedDoc{doc: doc, ix: ix}
			s.cachePut(sum, cd, int64(len(body)))
			return cd, false, nil
		}
	}
	psp := tr.StartSpan("parse")
	doc, err := s.parseDoc(body)
	psp.End()
	if err != nil {
		return cachedDoc{}, false, err
	}
	isp := tr.StartSpan("index")
	cd := cachedDoc{doc: doc, ix: index.New(doc)}
	isp.End()
	s.cachePut(sum, cd, int64(len(body)))
	return cd, false, nil
}

// cachePut inserts a parsed document and keeps the cache gauges honest.
func (s *Server) cachePut(sum [sha256.Size]byte, cd cachedDoc, weight int64) {
	if ev := s.cache.Put(sum, cd, weight); ev > 0 {
		s.met.cacheEvict.Add(uint64(ev))
	}
	s.met.cacheSize.Set(int64(s.cache.Len()))
	s.met.cacheBytes.Set(s.cache.Weight())
}

// handleDetect runs detection of the suspect XML body against the
// owner's registered receipts (no query set in the request). With
// ?receipt=ID only that receipt is tried; with ?mode=blind the carriers
// are re-derived from the document instead (original schema required).
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr := obs.FromContext(r.Context())
	tr.SetOp("detect")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	switch r.URL.Query().Get("mode") {
	case "stream":
		s.handleDetectStream(w, r, rt, ownerID, false)
		return
	case "stream-blind":
		s.handleDetectStream(w, r, rt, ownerID, true)
		return
	}
	blind := r.URL.Query().Get("mode") == "blind"
	wantReceipt := r.URL.Query().Get("receipt")
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()
	cd, cacheHit, err := s.suspectDoc(body, tr)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}

	// Assemble the detection jobs: one per candidate receipt, or a
	// single blind job.
	var jobs []pipeline.DetectJob
	var ids []string
	if blind {
		jobs = []pipeline.DetectJob{{Job: pipeline.Job{ID: "blind", Doc: cd.doc}, Index: cd.ix}}
		ids = []string{""}
	} else {
		var recs []registry.Receipt
		rsp := tr.StartSpan("registry")
		if wantReceipt != "" {
			rec, err := s.reg.GetReceipt(ownerID, wantReceipt)
			if err != nil {
				rsp.End()
				s.writeErr(w, r, errf(http.StatusNotFound, "owner %q has no receipt %q", ownerID, wantReceipt))
				return
			}
			recs = []registry.Receipt{rec}
		} else {
			recs, err = s.reg.ListReceipts(ownerID)
			if err != nil {
				rsp.End()
				s.writeErr(w, r, err)
				return
			}
			if len(recs) == 0 {
				rsp.End()
				s.writeErr(w, r, errf(http.StatusConflict, "owner %q has no receipts; embed first or use mode=blind", ownerID))
				return
			}
		}
		rsp.End()
		// Newest first: the latest embedding is the likeliest source.
		for i := len(recs) - 1; i >= 0; i-- {
			jobs = append(jobs, pipeline.DetectJob{
				Job:     pipeline.Job{ID: recs[i].ID, Doc: cd.doc},
				Records: recs[i].Records,
				Index:   cd.ix,
			})
			ids = append(ids, recs[i].ID)
		}
	}

	resp := detectResponse{Owner: ownerID, Mode: "receipts", CacheHit: cacheHit}
	if blind {
		resp.Mode = "blind"
	}
	best := -1
	var bestRes *core.DetectResult
	var lastErr error
	for i, job := range jobs {
		// The sweep stops at the first detected verdict, so each
		// receipt's decode plan is looked up only when it is tried. A
		// nil plan (compile error) sends the job down the uncached
		// path, which reports the compile error.
		if !blind {
			job.Plan = s.planFor(dplanKey{ownerID, ids[i], planDetect}, rt, rt.cfg, job.Records, tr)
		}
		outs, err := rt.eng.DetectAll(r.Context(), []pipeline.DetectJob{job})
		if err != nil {
			s.writeErr(w, r, errf(499, "cancelled: %v", err))
			return
		}
		resp.ReceiptsTried++
		out := outs[0]
		if out.Err != nil {
			// A single unusable receipt must not fail the sweep; the
			// error only surfaces if no receipt answers at all.
			lastErr = out.Err
			continue
		}
		// A detected verdict always wins: a wrong receipt can tie on
		// match fraction (few queries hit, all agree) while failing the
		// coverage floor, and a strict > comparison would let that stale
		// non-detection shadow the true receipt.
		if out.Result.Detected {
			bestRes, best = out.Result, i
			break
		}
		if bestRes == nil || out.Result.MatchFraction > bestRes.MatchFraction {
			bestRes, best = out.Result, i
		}
	}
	if bestRes == nil {
		if lastErr == nil {
			lastErr = errors.New("no receipt was usable")
		}
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "detect: %v", lastErr))
		return
	}
	if bestRes.Detected {
		tr.SetVerdict("detected")
	} else {
		tr.SetVerdict("clean")
	}
	resp.Receipt = ids[best]
	resp.Detected = bestRes.Detected
	resp.MatchFraction = bestRes.MatchFraction
	resp.Coverage = bestRes.Coverage
	resp.Sigma = bestRes.Sigma()
	resp.FalsePositiveRate = bestRes.FalsePositiveRate()
	resp.RecoveredText = bestRes.Recovered.Text()
	resp.QueriesRun = bestRes.QueriesRun
	resp.QueryMisses = bestRes.QueryMisses
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.met.detects.Inc()
	if resp.Detected {
		s.met.detected.Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}

// verifyResponse reports schema and semantic validation of a document
// against an owner's spec.
type verifyResponse struct {
	Owner            string             `json:"owner"`
	SchemaValid      bool               `json:"schema_valid"`
	SchemaViolations []string           `json:"schema_violations,omitempty"`
	ViolationCount   int                `json:"violation_count"`
	Keys             []constraintStatus `json:"keys,omitempty"`
	FDs              []constraintStatus `json:"fds,omitempty"`
	OK               bool               `json:"ok"`
	CacheHit         bool               `json:"cache_hit"`
}

type constraintStatus struct {
	Constraint string `json:"constraint"`
	OK         bool   `json:"ok"`
	Detail     string `json:"detail,omitempty"`
}

// handleVerify validates the XML body against the owner's schema and
// verifies the declared keys and FDs — the paper's initialization step
// as a service endpoint.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	tr.SetOp("verify")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()
	cd, cacheHit, err := s.suspectDoc(body, tr)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	resp := verifyResponse{Owner: ownerID, OK: true, CacheHit: cacheHit}
	violations := rt.schema.Validate(cd.doc)
	resp.ViolationCount = len(violations)
	resp.SchemaValid = len(violations) == 0
	if !resp.SchemaValid {
		resp.OK = false
		for i, v := range violations {
			if i == 10 {
				break
			}
			resp.SchemaViolations = append(resp.SchemaViolations, v.String())
		}
	}
	keyReps, fdReps, err := rt.catalog.Verify(cd.doc)
	if err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "verify: %v", err))
		return
	}
	for _, kr := range keyReps {
		st := constraintStatus{Constraint: fmt.Sprint(kr.Key), OK: kr.OK()}
		if !st.OK {
			st.Detail = fmt.Sprintf("%d missing, %d duplicate values over %d instances", kr.Missing, len(kr.Duplicates), kr.Instances)
			resp.OK = false
		}
		resp.Keys = append(resp.Keys, st)
	}
	for _, fr := range fdReps {
		st := constraintStatus{Constraint: fmt.Sprint(fr.FD), OK: fr.OK()}
		if !st.OK {
			st.Detail = fmt.Sprintf("%d groups disagree", len(fr.Violations))
			resp.OK = false
		}
		resp.FDs = append(resp.FDs, st)
	}
	s.met.verifies.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// guarded runs fn converting panics in tree or plug-in code into a 422
// for this request — fingerprint and trace run outside the pipeline
// engine (their config varies per recipient), so they carry their own
// isolation.
func guarded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errf(http.StatusUnprocessableEntity, "panicked: %v", r)
		}
	}()
	return fn()
}

// handleFingerprint watermarks the XML body with a recipient-specific
// code under the owner's key, registers the recipient, stores a
// recipient-tagged receipt and returns the recipient's copy — the
// distribution counterpart of /v1/embed.
func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	tr.SetOp("fingerprint")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	recipientID := r.URL.Query().Get("recipient")
	if recipientID == "" {
		s.writeErr(w, r, errf(http.StatusBadRequest, "recipient query parameter is required"))
		return
	}
	rcpt := registry.Recipient{ID: recipientID, Owner: ownerID, Note: r.URL.Query().Get("note"), CreatedUnix: time.Now().Unix()}
	if err := rcpt.Validate(); err != nil {
		s.writeErr(w, r, errf(http.StatusBadRequest, "%v", err))
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()
	psp := tr.StartSpan("parse")
	doc, err := s.parseDoc(body)
	psp.End()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	// Like embed's receipt id, but bound to the recipient too: retrying
	// the same fingerprint dedupes, different recipients never collide.
	idh := sha256.New()
	fmt.Fprintf(idh, "fp\x1f%s\x1f%s\x1f%s\x1f%d\x1f%s\x1f", rt.owner.ID, rt.owner.Key, rt.owner.Mark, rt.owner.Gamma, recipientID)
	idh.Write(body)
	receiptID := "f-" + hex.EncodeToString(idh.Sum(nil))[:32]

	var res *core.EmbedResult
	esp := tr.StartSpan("embed")
	if err := guarded(func() error {
		var eerr error
		res, eerr = rt.fp.Embed(doc, recipientID)
		return eerr
	}); err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "fingerprint: %v", err))
		return
	}
	esp.End()
	// The recipient record makes the id a tracing candidate; the
	// receipt binds this copy's query set to it. Registration is
	// idempotent (first CreatedUnix wins).
	rgsp := tr.StartSpan("registry")
	if err := s.reg.PutRecipient(rcpt); err != nil {
		s.writeErr(w, r, errf(http.StatusInternalServerError, "store recipient: %v", err))
		return
	}
	rec := registry.Receipt{
		ID: receiptID, Owner: ownerID, Doc: r.URL.Query().Get("doc"), Recipient: recipientID,
		CreatedUnix:    time.Now().Unix(),
		Records:        res.Records,
		BandwidthUnits: res.Bandwidth.Units,
		Carriers:       res.Carriers,
		ValuesWritten:  res.Embedded,
	}
	if err := s.reg.AddReceipt(rec); err != nil {
		if !errors.Is(err, registry.ErrDuplicate) {
			s.writeErr(w, r, errf(http.StatusInternalServerError, "store receipt: %v", err))
			return
		}
		stored, gerr := s.reg.GetReceipt(ownerID, receiptID)
		if gerr != nil || !slices.Equal(stored.Records, rec.Records) {
			s.writeErr(w, r, errf(http.StatusInternalServerError, "receipt id collision on %q: stored records do not match this fingerprint", receiptID))
			return
		}
	}
	rgsp.End()
	s.met.fingerprints.Inc()
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Recipient", recipientID)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(res.Carriers))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(res.Embedded))
	w.WriteHeader(http.StatusOK)
	xmltree.Serialize(w, doc, xmltree.SerializeOptions{Indent: "  "})
}

// traceResponse is the JSON verdict of one trace sweep.
type traceResponse struct {
	Owner       string                   `json:"owner"`
	Mode        string                   `json:"mode"` // "blind" or "receipt"
	Candidates  int                      `json:"candidates"`
	Accused     []string                 `json:"accused"`
	Accusations []fingerprint.Accusation `json:"accusations"`
	DecidedBits int                      `json:"decided_bits"`
	Threshold   float64                  `json:"threshold"`
	QueriesRun  int                      `json:"queries_run"`
	QueryMisses int                      `json:"query_misses"`
	CacheHit    bool                     `json:"cache_hit"`
	ElapsedMS   float64                  `json:"elapsed_ms"`
}

// handleTrace sweeps the suspect XML body against every recipient
// registered under the owner and returns the ranked accusation list.
// The suspect is decoded once — through the same parsed-document cache
// detection uses, so repeated traces skip reparse and index build —
// and the per-recipient work is a bit-vector correlation, which is
// what keeps an N-recipient sweep near the cost of a single detection.
// With ?receipt=ID the decode runs through that stored query set
// instead of blind carrier re-derivation.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr := obs.FromContext(r.Context())
	tr.SetOp("trace")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	wantReceipt := r.URL.Query().Get("receipt")
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()
	rsp := tr.StartSpan("registry")
	recipients, err := s.reg.ListRecipients(ownerID)
	rsp.End()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if len(recipients) == 0 {
		s.writeErr(w, r, errf(http.StatusConflict, "owner %q has no recipients; fingerprint first", ownerID))
		return
	}
	candidates := make([]string, len(recipients))
	for i, rc := range recipients {
		candidates[i] = rc.ID
	}
	cd, cacheHit, err := s.suspectDoc(body, tr)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	topts := fingerprint.TraceOptions{Index: cd.ix, Trace: tr}
	mode := "blind"
	if wantReceipt != "" {
		rec, gerr := s.reg.GetReceipt(ownerID, wantReceipt)
		if gerr != nil {
			s.writeErr(w, r, errf(http.StatusNotFound, "owner %q has no receipt %q", ownerID, wantReceipt))
			return
		}
		topts.Records = rec.Records
		topts.Plan = s.planFor(dplanKey{ownerID, wantReceipt, planTrace}, rt, rt.fp.PlanConfig(), rec.Records, tr)
		mode = "receipt"
	}
	var res *fingerprint.TraceResult
	if err := guarded(func() error {
		var terr error
		res, terr = rt.fp.Trace(cd.doc, candidates, topts)
		return terr
	}); err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "trace: %v", err))
		return
	}
	s.met.traces.Inc()
	if len(res.Accused) > 0 {
		tr.SetVerdict("accused")
		s.met.traceAccused.Inc()
	} else {
		tr.SetVerdict("clean")
	}
	writeJSON(w, http.StatusOK, traceResponse{
		Owner:       ownerID,
		Mode:        mode,
		Candidates:  len(candidates),
		Accused:     res.Accused,
		Accusations: res.Accusations,
		DecidedBits: res.DecidedBits,
		Threshold:   res.Threshold,
		QueriesRun:  res.QueriesRun,
		QueryMisses: res.QueryMisses,
		CacheHit:    cacheHit,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleListRecipients lists the owner's registered recipients — the
// candidate set /v1/trace sweeps. Key-holder only, like receipts.
func (s *Server) handleListRecipients(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	o, err := s.reg.GetOwner(id)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			s.writeErr(w, r, errf(http.StatusNotFound, "unknown owner %q", id))
			return
		}
		s.writeErr(w, r, err)
		return
	}
	if err := s.authorize(r, o); err != nil {
		s.writeErr(w, r, err)
		return
	}
	obs.FromContext(r.Context()).SetOwner(id)
	rcs, err := s.reg.ListRecipients(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"owner": id, "recipients": rcs})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	owners, err := s.reg.ListOwners()
	if err != nil {
		s.writeErr(w, r, errf(http.StatusServiceUnavailable, "registry: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": s.opts.Version,
		"owners":  len(owners),
	})
}

// handleReadyz is the readiness probe — distinct from /healthz
// (liveness): a live process stops being ready while draining on
// shutdown, or when its registry store stops answering. The registry
// probe is a single-key read against an id no tenant can register
// (ids may not contain '/'), so a healthy store answers ErrNotFound
// without scanning anything.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"reason": "shutting down: not accepting new work",
		})
		return
	}
	if _, err := s.reg.GetOwner("_readyz/probe"); err != nil && !errors.Is(err, registry.ErrNotFound) {
		// Detail goes to the log; the body stays generic — readyz sits on
		// the unauthenticated service mux.
		s.log.Error("readiness probe failed", "error", err.Error())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready",
			"reason": "registry probe failed",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "version": s.opts.Version})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.cacheSize.Set(int64(s.cache.Len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w)
}
