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
//   - Every endpoint returns its failure to one boundary, instrument(),
//     which answers it: the {error, request_id} envelope while no
//     response byte has gone out, a cut connection once output has
//     started. A panic in tree or plug-in code is recovered there as a
//     500 for that request, never a daemon crash.
//   - Repeated detections of the same suspect body hit an LRU of
//     parsed Document + DocumentIndex pairs keyed by the body itself,
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
	"log/slog"
	"net/http"
	"net/http/httputil"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmxml/internal/cluster"
	"wmxml/internal/config"
	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/fingerprint"
	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/obs"
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
	bound *lru[boundKey, *boundPlan]
	dplan *lru[dplanKey, planEntry]
	met   *metrics
	log   *obs.Logger
	ring  *obs.TraceRing
	mux   *http.ServeMux

	dog      *watchdog
	draining atomic.Bool

	// Fleet routing state; nil/empty on a standalone node.
	fleet   *cluster.Ring
	proxies map[string]*httputil.ReverseProxy

	mu       sync.Mutex
	runtimes map[string]*ownerRuntime
}

// ownerRuntime is the compiled per-tenant state: the working objects an
// owner's spec resolves to.
type ownerRuntime struct {
	owner   registry.Owner
	cfg     core.Config
	fp      *fingerprint.System
	schema  *schema.Schema
	catalog semantics.Catalog
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
		bound:    newLRU[boundKey, *boundPlan](64, 0),
		dplan:    newLRU[dplanKey, planEntry](decodePlanEntries, 0),
		log:      opts.Logger,
		ring:     obs.NewTraceRing(opts.TraceRing),
		runtimes: make(map[string]*ownerRuntime),
	}
	s.met = newMetrics(opts.Version, sloObjectives{detectP99: max(opts.SLODetectP99, 0), errorRatio: max(opts.SLOErrorRatio, 0)})
	if err := s.buildFleet(); err != nil {
		return nil, err
	}
	s.routes()
	if opts.CaptureDir != "" {
		s.dog = newWatchdog(watchdogConfig{
			dir:        opts.CaptureDir,
			maxBundles: opts.CaptureMax,
			cooldown:   opts.CaptureCooldown,
			cpuProfile: opts.CaptureCPUProfile,
			interval:   opts.WatchdogInterval,
		}, s)
	}
	return s, nil
}

// Close stops the anomaly watchdog, the server's one background
// goroutine (started only with CaptureDir set). Safe to call more than
// once and from several goroutines at once; the HTTP handlers stay
// functional afterwards (only self-monitoring halts), so it is safe to
// Close before the listener fully drains.
func (s *Server) Close() { s.dog.Stop() }

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

// handleDebugSLO serves the full SLO evaluation — the same computation
// the wmxmld_slo_* gauges render, per owner with the "_total" service
// aggregate first.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"defaults": map[string]any{
			"detect_p99_ms": float64(s.met.sloDefaults.detectP99.Microseconds()) / 1000,
			"error_ratio":   s.met.sloDefaults.errorRatio,
		},
		"windows": map[string]any{"fast_seconds": sloFastBuckets * sloFastBucketSecs, "slow_seconds": sloSlowBuckets * sloSlowBucketSecs},
		"owners":  s.met.evaluateSLO(time.Now().Unix()),
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

// CacheFlightStats reports how many requests waited on another
// request's parse (the miss singleflight).
func (s *Server) CacheFlightStats() (coalesced uint64) {
	return s.met.cacheCoalesced.Value()
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

// handler is an endpoint. It answers the request itself, or returns the
// error instrument() answers for it.
type handler func(w http.ResponseWriter, r *http.Request) error

// statusWriter captures the response code, whether the response has
// started, and the body byte count for instrumentation, and holds the
// pooled buffer readBody read the request body into until instrument()
// returns it. Its fields need no synchronization: only the handler
// goroutine writes the response.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	bytes int64
	body  *bytes.Buffer
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
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
// layer can attach stage spans, and on completion folded once into the
// metrics (route, stage, owner counters and SLO windows), then into the
// trace ring and the access log.
//
// It is also the one place a failed request is answered. A returned
// error, or a panic recovered as a 500, becomes the {error, request_id}
// envelope while no response byte has gone out. Once output has started
// the status line is spoken for: the request is recorded under the
// error's status and the connection is cut with http.ErrAbortHandler, so
// the client sees a truncated response, never a clean wrong one.
//
// It is also where a request's pooled body buffer goes back to the pool,
// last, once serve has returned (normally or from a recovered panic) and
// the request is answered and recorded: nothing holds the body any more.
func (s *Server) instrument(route string, h handler) http.HandlerFunc {
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
		err := serve(h, sw, r)
		if err != nil && !sw.wrote {
			s.writeErr(sw, r, err)
			err = nil
		}
		code := sw.code
		if err != nil {
			code = s.logErr(r, err)
		}
		d := time.Since(start)
		snap := tr.Finish(code, d)
		s.met.finishRequest(snap, route, code, d)
		if s.opts.TraceRing >= 0 {
			s.ring.Add(snap)
		}
		s.log.InfoAttrs("request",
			slog.String("request_id", snap.RequestID),
			slog.String("route", route),
			slog.Int("status", code),
			slog.Float64("dur_ms", float64(d.Microseconds())/1000),
			slog.String("owner", snap.Owner),
			slog.String("op", snap.Op),
			slog.Int64("doc_bytes", snap.DocBytes),
			slog.Int64("bytes_out", sw.bytes),
			slog.String("user_agent", r.UserAgent()),
			slog.String("verdict", snap.Verdict),
			slog.Bool("cache_hit", snap.CacheHit),
		)
		putBody(sw.body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
	}
}

// serve runs h and turns a panic into its error: a *panicError, or
// http.ErrAbortHandler itself when that is what was thrown (the fleet
// proxy throws it when a peer fails mid-body).
func serve(h handler, w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if v == http.ErrAbortHandler {
				err = http.ErrAbortHandler
				return
			}
			err = &panicError{val: v, stack: debug.Stack()}
		}
	}()
	return h(w, r)
}

// panicError is a recovered handler panic: a 500 whose value and stack
// go to the error log.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

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

// logErr logs a failed request at full fidelity — the whole error
// chain, wrapped causes, file paths, internal identifiers and a
// recovered panic's stack — and returns its status: 413 for a body over
// its cap, an httpError's own code, 500 for anything else.
func (s *Server) logErr(r *http.Request, err error) int {
	code := http.StatusInternalServerError
	var mbe *http.MaxBytesError
	var he *httpError
	switch {
	case errors.As(err, &mbe):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &he):
		code = he.code
	}
	tr := obs.FromContext(r.Context())
	args := []any{"request_id", tr.ID(), "route", tr.Route(), "status", code, "error", err.Error()}
	var pe *panicError
	if errors.As(err, &pe) {
		args = append(args, "stack", string(pe.stack))
	}
	if code >= http.StatusInternalServerError {
		s.log.Error("request failed", args...)
	} else {
		s.log.Warn("request rejected", args...)
	}
	return code
}

// writeErr logs an error and renders it as the stable JSON envelope
// {error, request_id} with the right status. The body carries the
// top-level message for client errors and only "internal error" for
// 5xx, plus the request id so an operator can join a client report to
// the log line and the trace.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	code := s.logErr(r, err)
	msg := err.Error()
	if code >= http.StatusInternalServerError {
		msg = "internal error"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "request_id": obs.FromContext(r.Context()).ID()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// acquire takes a worker slot, waiting up to QueueTimeout. A free slot
// is taken without building the timer.
func (s *Server) acquire(r *http.Request) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-r.Context().Done():
		return errf(499, "client went away: %v", r.Context().Err())
	case <-t.C:
		s.met.queueFull.Inc()
		return errf(http.StatusServiceUnavailable, "server busy: no worker slot within %s", s.opts.QueueTimeout)
	}
}

func (s *Server) release() { <-s.slots }

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

// maxPooledBody is the largest body buffer kept for reuse, and the most
// readBody reserves ahead of the bytes a client has sent. A larger
// buffer, from a rare upload near MaxBodyBytes, is left to the GC rather
// than pinned in the pool between collections.
const maxPooledBody = 4 << 20

// bodyPool holds the buffers readBody reads request bodies into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// onBodyReturn, when set, runs on the whole of each body buffer as it
// goes back to the pool. The package's tests set it to overwrite the
// buffer, so any reference kept past the request reads garbage.
var onBodyReturn func([]byte)

// putBody returns a body buffer taken by readBody to bodyPool; nil is a
// no-op.
func putBody(buf *bytes.Buffer) {
	if buf == nil {
		return
	}
	if onBodyReturn != nil {
		b := buf.Bytes()
		onBodyReturn(b[:cap(b)])
	}
	if buf.Cap() > maxPooledBody {
		return
	}
	buf.Reset()
	bodyPool.Put(buf)
}

// readBody drains the (size-capped) request body into a pooled buffer
// sized from Content-Length; the bytes returned are valid until the
// handler returns, when instrument() takes the buffer back. Nothing may
// keep them: the tree copies every name and value, the doc cache keys
// an entry by its own copy of the body, and a receipt id keeps only a
// hash of it. The read is a stage of its own: it waits on the client,
// and left unspanned it is the largest stretch of a request no stage
// accounts for.
//
// A body over the cap is a 413 (and closes the connection); any other
// read error means the client stopped sending, a 499 that is not the
// server's failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	sp := obs.FromContext(r.Context()).StartSpan("body_read")
	buf := bodyPool.Get().(*bytes.Buffer)
	if sw, ok := w.(*statusWriter); ok {
		sw.body = buf
	}
	// The extra MinRead keeps ReadFrom from growing the buffer again just
	// to see EOF after the last declared byte.
	if n := min(r.ContentLength, s.opts.MaxBodyBytes, maxPooledBody); n > 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(limitBody(w, r, s.opts.MaxBodyBytes))
	sp.End()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.met.tooLarge.Inc()
			return nil, err
		}
		return nil, errf(499, "client went away: read request body: %v", err)
	}
	if buf.Len() == 0 {
		return nil, errf(http.StatusBadRequest, "empty request body")
	}
	obs.FromContext(r.Context()).SetDocBytes(int64(buf.Len()))
	return buf.Bytes(), nil
}

// admit reads the request body, then takes a worker slot for the work
// on it: in that order, so a slow upload never holds a slot. On success
// the caller must release the slot.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	if err := s.acquire(r); err != nil {
		return nil, err
	}
	return body, nil
}

// parseDoc parses an XML body in a "parse" span, under the depth guard,
// through the byte tokenizer (interned names, slab nodes) and its
// encoding/xml hand-off.
func (s *Server) parseDoc(body []byte, tr *obs.Trace) (*xmltree.Node, error) {
	sp := tr.StartSpan("parse")
	doc, err := xmltree.ParseBytes(body, xmltree.ParseOptions{MaxDepth: s.opts.MaxDepth})
	sp.End()
	if err != nil {
		return nil, errf(http.StatusBadRequest, "parse document: %v", err)
	}
	return doc, nil
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
	got := registry.BearerToken(r)
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
// and caching on first use. It reads the owner record once per request:
// the registry read is the only staleness bound (a Remote registry
// serves it from its --registry-cache-ttl cache). The request
// credential is checked against the record BEFORE any runtime work, so
// unauthenticated peers never trigger the comparatively expensive spec
// compile. Owner ids themselves are not secrets (they ride in URLs and
// receipts), so an unknown id stays a 404 rather than being folded into
// the 401.
func (s *Server) runtimeFor(r *http.Request, id string) (*ownerRuntime, error) {
	if id == "" {
		return nil, errf(http.StatusBadRequest, "owner query parameter is required")
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
		return rt, nil
	}
	// First sight, or the record changed under us (out-of-band registry
	// replacement): compile it, and its SLO objectives go with it.
	rt, err = s.buildRuntime(o)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.runtimes[id] = rt
	s.mu.Unlock()
	s.met.setObjectives(id, o.SLO)
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
func (s *Server) handlePutOwner(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	var o registry.Owner
	if err := json.Unmarshal(body, &o); err != nil {
		return errf(http.StatusBadRequest, "parse owner: %v", err)
	}
	if o.CreatedUnix == 0 {
		o.CreatedUnix = time.Now().Unix()
	}
	if err := o.Validate(); err != nil {
		return errf(http.StatusBadRequest, "%v", err)
	}
	tr := obs.FromContext(r.Context())
	tr.SetOp("register")
	tr.SetOwner(o.ID)
	// Cheap fast-fail before the spec compile: unauthenticated peers
	// must not get to burn a buildRuntime against an existing id. The
	// authoritative check is repeated under the lock below.
	if err := s.mayRegister(r, o.ID); err != nil {
		return err
	}
	rt, err := s.buildRuntime(o)
	if err != nil {
		return err
	}
	// The exists-check and the Put must be one atomic step: two
	// concurrent registrations of the same fresh id would otherwise
	// both pass the not-found check and the later Put would silently
	// overwrite the earlier key — a hijack window on first
	// registration. s.mu serializes every registration in this process,
	// and the registry file lock guarantees this process is the only
	// writer.
	if err := s.putOwner(r, o, rt); err != nil {
		return err
	}
	// Re-registration is how operators tune a tenant's SLO override; the
	// new objectives apply from this request on.
	s.met.setObjectives(o.ID, o.SLO)
	n := 0
	if recs, err := s.reg.ListReceipts(o.ID); err == nil {
		n = len(recs)
	}
	writeJSON(w, http.StatusOK, ownerResponse{ID: o.ID, Dataset: o.Dataset, Gamma: o.Gamma, Receipts: n})
	return nil
}

// mayRegister checks that registering id is allowed: the id is new, or
// the request proves the current key of the owner it replaces.
func (s *Server) mayRegister(r *http.Request, id string) error {
	existing, err := s.reg.GetOwner(id)
	if errors.Is(err, registry.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	if s.authorize(r, existing) != nil {
		return errf(http.StatusUnauthorized, "owner %q exists; re-registration requires Authorization: Bearer <current key>", id)
	}
	return nil
}

// putOwner stores o and its compiled runtime, repeating mayRegister's
// check under s.mu so the check and the Put are one step.
func (s *Server) putOwner(r *http.Request, o registry.Owner, rt *ownerRuntime) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mayRegister(r, o.ID); err != nil {
		return err
	}
	if err := s.reg.PutOwner(o); err != nil {
		return err
	}
	s.runtimes[o.ID] = rt
	return nil
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

func (s *Server) handleListReceipts(w http.ResponseWriter, r *http.Request) error {
	id, err := s.pathOwner(r)
	if err != nil {
		return err
	}
	recs, err := s.reg.ListReceipts(id)
	if err != nil {
		return err
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
	return nil
}

// pathOwner resolves the owner named by the {id} path segment through
// runtimeFor, which checks the request's credential against it.
// Receipts are the safeguarded query sets and recipients the tracing
// candidates; even their metadata listings are for the key holder only.
func (s *Server) pathOwner(r *http.Request) (string, error) {
	id := r.PathValue("id")
	if _, err := s.runtimeFor(r, id); err != nil {
		return "", err
	}
	return id, nil
}

// handleEmbed watermarks the XML request body under the owner's key and
// mark, stores the receipt, and returns the marked document. The
// receipt id is derived from the owner configuration and the body
// (deriveReceiptID), so retrying the same embed is idempotent.
func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) error {
	obs.FromContext(r.Context()).SetOp("embed")
	rt, err := s.runtimeFor(r, r.URL.Query().Get("owner"))
	if err != nil {
		return err
	}
	if r.URL.Query().Get("mode") == "stream" {
		return s.handleEmbedStream(w, r, rt)
	}
	return s.markBody(w, r, rt, "embed", "r", registry.Recipient{}, &s.met.embeds,
		func(doc *xmltree.Node, ix *index.Index) (*core.EmbedResult, error) {
			return core.EmbedIndexed(doc, rt.cfg, ix)
		})
}

// markBody is the buffered copy path of /v1/embed and /v1/fingerprint:
// admit the body, parse, index, mark it, record the copy and serialize
// it. The routes differ only in the mark, the op name (for errors), the
// receipt-id prefix, the recipient (zero for the owner's own mark) and
// the counter done.
func (s *Server) markBody(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, op, prefix string,
	rcpt registry.Recipient, done *counter, mark func(*xmltree.Node, *index.Index) (*core.EmbedResult, error)) error {
	tr := obs.FromContext(r.Context())
	body, err := s.admit(w, r)
	if err != nil {
		return err
	}
	defer s.release()
	doc, err := s.parseDoc(body, tr)
	if err != nil {
		return err
	}
	isp := tr.StartSpan("index")
	ix := index.New(doc)
	isp.End()
	esp := tr.StartSpan("embed")
	res, err := mark(doc, ix)
	esp.End()
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "%s: %v", op, err)
	}
	if err := s.recordCopy(w, r, rt, prefix, rcpt, body, res); err != nil {
		return err
	}
	done.Inc()
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	xmltree.Serialize(w, doc, xmltree.SerializeOptions{Indent: "  "})
	return nil
}

// recordCopy records a marked copy the server hands out; every route
// that hands one out calls it. It registers the recipient, when there is
// one (a tracing candidate from this moment on), stores the receipt
// binding the copy's query set Q, and sets the X-Wmxml-* headers — or,
// on a streamed embed, which declares them in its Trailer header, the
// trailers. The receipt id is deriveReceiptID(prefix, owner, recipient,
// content). A copy with no carriers has no Q to safeguard: it gets no
// receipt, no X-Wmxml-Receipt and X-Wmxml-Carriers: 0.
func (s *Server) recordCopy(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, prefix string,
	rcpt registry.Recipient, content []byte, res *core.EmbedResult) error {
	sp := obs.FromContext(r.Context()).StartSpan("registry")
	defer sp.End()
	h := w.Header()
	if rcpt.ID != "" {
		if err := s.reg.PutRecipient(rcpt); err != nil {
			return errf(http.StatusInternalServerError, "store recipient: %v", err)
		}
		h.Set("X-Wmxml-Recipient", rcpt.ID)
	}
	if len(res.Records) > 0 {
		id := deriveReceiptID(prefix, rt.owner, rcpt.ID, content)
		err := s.storeReceipt(registry.Receipt{
			ID: id, Owner: rt.owner.ID, Doc: r.URL.Query().Get("doc"), Recipient: rcpt.ID,
			CreatedUnix:    time.Now().Unix(),
			Records:        res.Records,
			BandwidthUnits: res.Bandwidth.Units,
			Carriers:       res.Carriers,
			ValuesWritten:  res.Embedded,
		})
		if err != nil {
			return err
		}
		h.Set("X-Wmxml-Receipt", id)
	}
	h.Set("X-Wmxml-Carriers", strconv.Itoa(res.Carriers))
	h.Set("X-Wmxml-Values-Written", strconv.Itoa(res.Embedded))
	h.Set("X-Wmxml-Bandwidth-Units", strconv.Itoa(res.Bandwidth.Units))
	return nil
}

// deriveReceiptID derives a receipt id from everything that decides
// the receipt's records: the owner's id and embedding configuration
// (key, mark, gamma, dataset and spec), the recipient ("" for an owner
// embed) and the content (the request body, a streamed body's digest or
// the sha256 of the delivery plan a copy was spliced from). prefix names
// the route ("r" embed, "f" fingerprint, "s" stream embed, "d" deliver)
// and is hashed too. Retrying a request under an unchanged owner record
// dedupes, since deterministic embedding makes the receipts identical;
// re-embedding after a rotation or a spec change gets a fresh id
// instead of colliding with the stale receipt. CreatedUnix and SLO
// change no records and are left out. Each field is quoted, so none can
// run into the next. 128 id bits keep accidental collisions negligible
// at any realistic receipt count.
func deriveReceiptID(prefix string, o registry.Owner, recipient string, content []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1f%q\x1f%q\x1f%q\x1f%d\x1f%q\x1f%q\x1f%q\x1f",
		prefix, o.ID, o.Key, o.Mark, o.Gamma, o.Dataset, []byte(o.Spec), recipient)
	h.Write(content)
	return prefix + "-" + hex.EncodeToString(h.Sum(nil))[:32]
}

// storeReceipt appends a receipt to the registry. Its id is derived from
// the body and the owner configuration, so a duplicate id with identical
// records is an idempotent retry. Anything else is an id collision
// between different documents, refused rather than answered with a
// receipt whose queries target another document.
func (s *Server) storeReceipt(rec registry.Receipt) error {
	err := s.reg.AddReceipt(rec)
	if err == nil {
		return nil
	}
	if !errors.Is(err, registry.ErrDuplicate) {
		return errf(http.StatusInternalServerError, "store receipt: %v", err)
	}
	stored, err := s.reg.GetReceipt(rec.Owner, rec.ID)
	if err != nil || !slices.Equal(stored.Records, rec.Records) {
		return errf(http.StatusInternalServerError, "receipt id collision on %q: stored records do not match this embedding", rec.ID)
	}
	return nil
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
// through the document cache, which the body itself keys. The lookup,
// the parse and the index build each get a stage span on the request
// trace, so a cold detect shows where its time went (and the cache
// span's note says hit/miss/coalesced). A hit copies nothing; a miss
// copies the body once, into the key its flight and entry keep.
//
// Cold lookups are singleflighted on the body: under N concurrent
// detects of the same uncached body, exactly one request parses and
// indexes while the other N-1 wait on its flight and share the result.
// Before the flight, each of the N paid the full parse+index cost — the
// miss stampede that made a cache-cold burst N times as expensive as it
// needed to be. With the cache disabled (CacheEntries < 0) there is
// nothing to populate, so every request does its own work, as before.
func (s *Server) suspectDoc(body []byte, tr *obs.Trace) (cachedDoc, bool, error) {
	csp := tr.StartSpan("cache")
	cd, ok := s.cache.get(body)
	if ok {
		csp.EndNote("hit")
		tr.SetCacheHit(true)
		s.met.cacheHits.Inc()
		return cd, true, nil
	}
	if s.opts.CacheEntries == 0 {
		csp.EndNote("miss")
		s.met.cacheMiss.Inc()
		cd, err := s.fillDoc("", body, tr) // nothing is cached, so no key is kept
		return cd, false, err
	}
	key := string(body)
	call, leader := s.cache.join(key)
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
	if cd, ok := s.cache.get(body); ok {
		s.cache.complete(key, call, cd, nil)
		csp.EndNote("hit")
		tr.SetCacheHit(true)
		s.met.cacheHits.Inc()
		return cd, true, nil
	}
	csp.EndNote("miss")
	s.met.cacheMiss.Inc()
	// Completing in a defer retires the flight even when the fill
	// panics, so its waiters fail instead of blocking for good.
	cd, err := cachedDoc{}, errors.New("document parse did not complete")
	defer func() { s.cache.complete(key, call, cd, err) }()
	cd, err = s.fillDoc(key, body, tr)
	return cd, false, err
}

// fillDoc does the actual work of a cache miss: parse and index the
// body, then cache the result under key, the body's own copy, weighted
// by the bytes that copy holds.
func (s *Server) fillDoc(key string, body []byte, tr *obs.Trace) (cachedDoc, error) {
	doc, err := s.parseDoc(body, tr)
	if err != nil {
		return cachedDoc{}, err
	}
	isp := tr.StartSpan("index")
	cd := cachedDoc{doc: doc, ix: index.New(doc)}
	isp.End()
	evicted := s.cache.Put(key, cd, int64(len(body)))
	s.met.cacheEvict.Add(uint64(evicted))
	return cd, nil
}

// handleDetect runs detection of the suspect XML body against the
// owner's registered receipts (no query set in the request). With
// ?receipt=ID only that receipt is tried; with ?mode=blind the carriers
// are re-derived from the document instead (original schema required).
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	tr := obs.FromContext(r.Context())
	tr.SetOp("detect")
	q := r.URL.Query()
	ownerID, mode := q.Get("owner"), q.Get("mode")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		return err
	}
	switch mode {
	case "stream":
		return s.handleDetectStream(w, r, rt, ownerID, q.Get("receipt"), false)
	case "stream-blind":
		return s.handleDetectStream(w, r, rt, ownerID, "", true)
	}
	blind := mode == "blind"
	body, err := s.admit(w, r)
	if err != nil {
		return err
	}
	defer s.release()
	cd, cacheHit, err := s.suspectDoc(body, tr)
	if err != nil {
		return err
	}

	resp := detectResponse{Owner: ownerID, Mode: "receipts", CacheHit: cacheHit}
	var best *core.DetectResult
	if blind {
		resp.Mode = "blind"
		resp.ReceiptsTried = 1
		pl, err := core.CompileBlindPlan(rt.cfg)
		if err != nil {
			return errf(http.StatusUnprocessableEntity, "detect: %v", err)
		}
		best = pl.DetectTraced(cd.doc, cd.ix, tr)
	} else {
		rsp := tr.StartSpan("registry")
		recs, err := s.detectReceipts(ownerID, q.Get("receipt"), "blind")
		rsp.End()
		if err != nil {
			return err
		}
		// Newest first: the latest embedding is the likeliest source. The
		// sweep stops at the first detected verdict, so each receipt's
		// decode plan is looked up only when it is tried.
		var lastErr error
		for i := len(recs) - 1; i >= 0; i-- {
			if err := r.Context().Err(); err != nil {
				return errf(499, "cancelled: %v", err)
			}
			resp.ReceiptsTried++
			pl, err := s.planFor(dplanKey{ownerID, recs[i].ID, planDetect}, rt, rt.cfg, recs[i].Records, tr)
			if err != nil {
				// A single unusable receipt must not fail the sweep; the
				// error only surfaces if no receipt answers at all.
				lastErr = err
				continue
			}
			res := pl.DetectTraced(cd.doc, cd.ix, tr)
			// A detected verdict always wins: a wrong receipt can tie on
			// match fraction (few queries hit, all agree) while failing the
			// coverage floor, and a strict > comparison would let that stale
			// non-detection shadow the true receipt.
			if best == nil || res.Detected || res.MatchFraction > best.MatchFraction {
				best, resp.Receipt = res, recs[i].ID
			}
			if res.Detected {
				break
			}
		}
		if best == nil {
			return errf(http.StatusUnprocessableEntity, "detect: %v", lastErr)
		}
	}
	if best.Detected {
		tr.SetVerdict("detected")
	} else {
		tr.SetVerdict("clean")
	}
	s.verdict(&resp, best, start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// verdict fills resp from a detection result, stamps the time since
// start and counts the detection.
func (s *Server) verdict(resp *detectResponse, res *core.DetectResult, start time.Time) {
	resp.Detected = res.Detected
	resp.MatchFraction = res.MatchFraction
	resp.Coverage = res.Coverage
	resp.Sigma = res.Sigma()
	resp.FalsePositiveRate = res.FalsePositiveRate()
	resp.RecoveredText = res.Recovered.Text()
	resp.QueriesRun = res.QueriesRun
	resp.QueryMisses = res.QueryMisses
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.met.detects.Inc()
	if res.Detected {
		s.met.detected.Inc()
	}
}

// detectReceipts resolves the receipts a detection tries: the one named
// by want (?receipt=), or every receipt the owner holds, oldest first.
// An owner without receipts is a 409 that points at blindMode.
func (s *Server) detectReceipts(ownerID, want, blindMode string) ([]registry.Receipt, error) {
	if want != "" {
		rec, err := s.reg.GetReceipt(ownerID, want)
		if err != nil {
			return nil, errf(http.StatusNotFound, "owner %q has no receipt %q", ownerID, want)
		}
		return []registry.Receipt{rec}, nil
	}
	recs, err := s.reg.ListReceipts(ownerID)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errf(http.StatusConflict, "owner %q has no receipts; embed first or use mode=%s", ownerID, blindMode)
	}
	return recs, nil
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
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) error {
	tr := obs.FromContext(r.Context())
	tr.SetOp("verify")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		return err
	}
	body, err := s.admit(w, r)
	if err != nil {
		return err
	}
	defer s.release()
	cd, cacheHit, err := s.suspectDoc(body, tr)
	if err != nil {
		return err
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
		return errf(http.StatusUnprocessableEntity, "verify: %v", err)
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
	return nil
}

// handleFingerprint watermarks the XML body with a recipient-specific
// code under the owner's key, registers the recipient, stores a
// recipient-tagged receipt and returns the recipient's copy — the
// distribution counterpart of /v1/embed, on the same body path.
// Registration is idempotent (first CreatedUnix wins).
func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) error {
	obs.FromContext(r.Context()).SetOp("fingerprint")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		return err
	}
	rcpt, err := recipientOf(r, ownerID)
	if err != nil {
		return err
	}
	return s.markBody(w, r, rt, "fingerprint", "f", rcpt, &s.met.fingerprints,
		func(doc *xmltree.Node, ix *index.Index) (*core.EmbedResult, error) {
			return rt.fp.EmbedIndexed(doc, rcpt.ID, ix)
		})
}

// recipientOf reads the ?recipient= (and ?note=) of a fingerprint or
// delivery request into the recipient record it registers.
func recipientOf(r *http.Request, ownerID string) (registry.Recipient, error) {
	q := r.URL.Query()
	if q.Get("recipient") == "" {
		return registry.Recipient{}, errf(http.StatusBadRequest, "recipient query parameter is required")
	}
	rcpt := registry.Recipient{ID: q.Get("recipient"), Owner: ownerID, Note: q.Get("note"), CreatedUnix: time.Now().Unix()}
	if err := rcpt.Validate(); err != nil {
		return registry.Recipient{}, errf(http.StatusBadRequest, "%v", err)
	}
	return rcpt, nil
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
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	tr := obs.FromContext(r.Context())
	tr.SetOp("trace")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		return err
	}
	wantReceipt := r.URL.Query().Get("receipt")
	body, err := s.admit(w, r)
	if err != nil {
		return err
	}
	defer s.release()
	rsp := tr.StartSpan("registry")
	recipients, err := s.reg.ListRecipients(ownerID)
	rsp.End()
	if err != nil {
		return err
	}
	if len(recipients) == 0 {
		return errf(http.StatusConflict, "owner %q has no recipients; fingerprint first", ownerID)
	}
	candidates := make([]string, len(recipients))
	for i, rc := range recipients {
		candidates[i] = rc.ID
	}
	cd, cacheHit, err := s.suspectDoc(body, tr)
	if err != nil {
		return err
	}
	topts := fingerprint.TraceOptions{Index: cd.ix, Trace: tr}
	mode := "blind"
	if wantReceipt != "" {
		rec, err := s.reg.GetReceipt(ownerID, wantReceipt)
		if err != nil {
			return errf(http.StatusNotFound, "owner %q has no receipt %q", ownerID, wantReceipt)
		}
		topts.Plan, err = s.planFor(dplanKey{ownerID, wantReceipt, planTrace}, rt, rt.fp.PlanConfig(), rec.Records, tr)
		if err != nil {
			return errf(http.StatusUnprocessableEntity, "trace: %v", err)
		}
		mode = "receipt"
	}
	res, err := rt.fp.Trace(cd.doc, candidates, topts)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "trace: %v", err)
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
	return nil
}

// handleListRecipients lists the owner's registered recipients — the
// candidate set /v1/trace sweeps. Key-holder only, like receipts.
func (s *Server) handleListRecipients(w http.ResponseWriter, r *http.Request) error {
	id, err := s.pathOwner(r)
	if err != nil {
		return err
	}
	rcs, err := s.reg.ListRecipients(id)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"owner": id, "recipients": rcs})
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	owners, err := s.reg.ListOwners()
	if err != nil {
		return errf(http.StatusServiceUnavailable, "registry: %v", err)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": s.opts.Version,
		"owners":  len(owners),
	})
	return nil
}

// handleReadyz is the readiness probe — distinct from /healthz
// (liveness): a live process stops being ready while draining on
// shutdown, or when its registry store stops answering. The registry
// probe is a single-key read against an id no tenant can register
// (ids may not contain '/'), so a healthy store answers ErrNotFound
// without scanning anything.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"reason": "shutting down: not accepting new work",
		})
		return nil
	}
	if _, err := s.reg.GetOwner("_readyz/probe"); err != nil && !errors.Is(err, registry.ErrNotFound) {
		// Detail goes to the log; the body stays generic — readyz sits on
		// the unauthenticated service mux.
		s.log.Error("readiness probe failed", "error", err.Error())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready",
			"reason": "registry probe failed",
		})
		return nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "version": s.opts.Version})
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// writeMetrics renders the exposition with the server-state gauges read
// now: worker slots held and the document cache's size.
func (s *Server) writeMetrics(w io.Writer) {
	s.met.render(w, len(s.slots), s.cache.Len(), s.cache.Weight())
}
