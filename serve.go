package wmxml

// The serving layer: the public face of internal/server and
// internal/registry, behind the `wmxmld` daemon. See DESIGN.md
// ("Serving layer") and the README's "Running the service" quickstart.

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"wmxml/internal/obs"
	"wmxml/internal/registry"
	"wmxml/internal/server"
)

// Owner is one tenant of the watermarking service: id, secret key,
// watermark and document-type spec (a built-in dataset preset or a
// JSON spec).
type Owner = registry.Owner

// StoredReceipt is one embedding's safeguarded detection material in
// the receipt registry.
type StoredReceipt = registry.Receipt

// Recipient is one distribution target registered under an owner — a
// tracing candidate for /v1/trace.
type Recipient = registry.Recipient

// ReceiptStore is the multi-tenant owner/receipt registry contract.
type ReceiptStore = registry.Store

// ErrRegistryNotFound reports a missing owner or receipt.
var ErrRegistryNotFound = registry.ErrNotFound

// NewMemoryRegistry builds an in-process registry (tests, ephemeral
// deployments).
func NewMemoryRegistry() ReceiptStore { return registry.NewMemory() }

// OpenFileRegistry opens (or creates) a file-backed registry: a JSONL
// log with crash-safe fsync'd appends. Use Compact (via the concrete
// *registry.File) or wmxmld's --compact-on-start to fold a long log.
func OpenFileRegistry(path string) (ReceiptStore, error) {
	return registry.OpenFile(path, registry.FileOptions{})
}

// OpenShardedRegistry opens (or creates) a sharded file registry: a
// directory of per-shard JSONL logs, owners assigned by hash. Appends
// to different owners no longer serialize on one file lock, and
// compaction proceeds shard by shard. The shard count is fixed at
// creation and enforced on reopen.
func OpenShardedRegistry(dir string, shards int) (ReceiptStore, error) {
	return registry.OpenSharded(dir, shards, registry.FileOptions{})
}

// OpenRemoteRegistry connects to another wmxmld node's registry over
// its fleet API (`/internal/registry/` on the node holding the
// authoritative store), authenticated by the shared cluster key. With
// cacheTTL > 0 reads are served from a local ETag-validated cache for
// that long between revalidations; 0 revalidates on every read.
func OpenRemoteRegistry(baseURL, clusterKey string, cacheTTL time.Duration) (ReceiptStore, error) {
	return registry.OpenRemote(baseURL, registry.RemoteOptions{Key: clusterKey, CacheTTL: cacheTTL})
}

// ServerOptions configures the wmxmld HTTP service.
type ServerOptions struct {
	// Addr is the listen address for Serve (default ":8484").
	Addr string
	// Registry stores owners and receipts; nil uses a fresh in-memory
	// store (all state is lost on exit).
	Registry ReceiptStore
	// Workers bounds concurrently executing operations; 0 = GOMAXPROCS.
	Workers int
	// QueueTimeout is how long a request waits for a worker slot before
	// a 503 (0 = 10s).
	QueueTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 32 MiB).
	MaxBodyBytes int64
	// MaxStreamBytes caps bodies of the streaming endpoints
	// (?mode=stream), which exist for documents larger than
	// MaxBodyBytes (0 = 4 GiB).
	MaxStreamBytes int64
	// StreamChunkSize is the records-per-chunk setting of the streaming
	// endpoints (0 = 256).
	StreamChunkSize int
	// MaxDepth caps XML nesting on parse (0 = the xmltree default).
	MaxDepth int
	// CacheEntries sizes the suspect-document LRU keyed by the body
	// (0 = 128; negative disables).
	CacheEntries int
	// CacheBytes caps the suspect-document LRU's total weight in
	// source-body bytes (0 = 256 MiB; negative removes the byte bound).
	// Bodies larger than the cap are served but never cached.
	CacheBytes int64
	// AllowUnauthenticated disables the Bearer-key check on
	// owner-scoped endpoints. By default every embed/detect/verify/
	// receipts request must present the owner's secret key
	// (`Authorization: Bearer <key>`), and re-registering an existing
	// owner id requires the current key; only set this on networks
	// where every peer is already trusted with every tenant's secrets.
	AllowUnauthenticated bool
	// Version is the build version string surfaced in /healthz (empty
	// renders as "dev"). The daemon injects it via -ldflags.
	Version string
	// LogWriter receives structured log lines — one access-log record
	// per finished request plus error records with the full error chain
	// (error response bodies carry only a stable message and the request
	// id). nil writes to os.Stderr; io.Discard silences logging.
	LogWriter io.Writer
	// LogLevel is the minimum level: debug | info | warn | error
	// ("" = info).
	LogLevel string
	// LogFormat is json ("" = json) or text.
	LogFormat string
	// TraceRing is how many recent (and how many slowest) completed
	// request traces are retained for /debug/traces on the debug
	// listener. 0 means 32; negative disables span recording and
	// retention (request ids and logging still work).
	TraceRing int
	// DebugAddr, when non-empty, starts a second listener serving
	// net/http/pprof plus GET /debug/traces, /debug/slo and
	// /debug/captures. Keep it loopback-only or firewalled: traces and
	// SLO pages carry owner ids, document sizes and verdicts.
	DebugAddr string
	// SLODetectP99 is the default latency objective 99% of each
	// tenant's detect requests must meet (0 = 250ms; negative
	// disables). Per-owner override via the registry record's "slo"
	// field.
	SLODetectP99 time.Duration
	// SLOErrorRatio is the default tolerated 5xx fraction
	// (0 = 0.01; negative disables).
	SLOErrorRatio float64
	// CaptureDir enables the anomaly watchdog: on a breached objective
	// or runtime threshold it writes a capture bundle (pprof profiles,
	// slowest traces, metrics and SLO snapshots, firing rule) into this
	// directory's bounded ring. Empty disables the watchdog.
	CaptureDir string
	// CaptureMax bounds the bundle ring (0 = 8; oldest evicted).
	CaptureMax int
	// CaptureCooldown gates refiring of one (rule, owner) pair (0 = 5m).
	CaptureCooldown time.Duration
	// CaptureCPUProfile is the CPU profile length recorded into each
	// bundle (0 = 5s; negative skips the CPU profile).
	CaptureCPUProfile time.Duration
	// WatchdogInterval is the anomaly rule evaluation period (0 = 10s).
	WatchdogInterval time.Duration
	// DrainDelay is how long Serve keeps answering 503 on /readyz
	// before closing listeners on shutdown — the window a load balancer
	// needs to observe the flip and stop routing here (0 = none).
	DrainDelay time.Duration
	// ClusterKey, when set, mounts the node-to-node registry API under
	// /internal/registry/ (Bearer-authenticated with this key). Set it
	// on the node holding a fleet's authoritative registry; peers
	// connect via OpenRemoteRegistry with the same key.
	ClusterKey string
	// FleetNodes lists every node address (http://host:port) of the
	// fleet. With two or more entries, owner-scoped requests are routed
	// by consistent hash to the owner's home node, so each owner warms
	// exactly one document cache instead of N competing ones. Clients
	// may still contact any node.
	FleetNodes []string
	// FleetSelf is this node's own address as listed in FleetNodes;
	// required when FleetNodes has two or more entries.
	FleetSelf string
}

// newServer builds the internal server from the public options.
func newServer(opts ServerOptions) (*server.Server, error) {
	reg := opts.Registry
	if reg == nil {
		reg = registry.NewMemory()
	}
	w := opts.LogWriter
	if w == nil {
		w = os.Stderr
	}
	return server.New(server.Options{
		Registry:             reg,
		Workers:              opts.Workers,
		QueueTimeout:         opts.QueueTimeout,
		MaxBodyBytes:         opts.MaxBodyBytes,
		MaxStreamBytes:       opts.MaxStreamBytes,
		StreamChunkSize:      opts.StreamChunkSize,
		MaxDepth:             opts.MaxDepth,
		CacheEntries:         opts.CacheEntries,
		CacheBytes:           opts.CacheBytes,
		AllowUnauthenticated: opts.AllowUnauthenticated,
		Version:              opts.Version,
		Logger:               obs.NewLogger(w, obs.LogOptions{Level: opts.LogLevel, Format: opts.LogFormat}),
		TraceRing:            opts.TraceRing,
		SLODetectP99:         opts.SLODetectP99,
		SLOErrorRatio:        opts.SLOErrorRatio,
		CaptureDir:           opts.CaptureDir,
		CaptureMax:           opts.CaptureMax,
		CaptureCooldown:      opts.CaptureCooldown,
		CaptureCPUProfile:    opts.CaptureCPUProfile,
		WatchdogInterval:     opts.WatchdogInterval,
		ClusterKey:           opts.ClusterKey,
		FleetNodes:           opts.FleetNodes,
		FleetSelf:            opts.FleetSelf,
	})
}

// NewServerHandler builds the wmxmld HTTP API as an http.Handler, for
// embedding into an existing server or test harness. Without
// CaptureDir the handler starts no goroutine. With CaptureDir set, its
// anomaly watchdog runs in the background and has no close path
// through this form; embedders who need clean teardown should run
// Serve instead.
func NewServerHandler(opts ServerOptions) (http.Handler, error) {
	s, err := newServer(opts)
	if err != nil {
		return nil, err
	}
	return s.Handler(), nil
}

// Serve runs the wmxmld HTTP service until ctx is cancelled, then
// shuts down gracefully: GET /readyz flips to 503 first (and stays
// there for DrainDelay so load balancers can observe it), then
// listeners close and in-flight requests get up to 10 seconds to
// finish. When DebugAddr is set a second listener serves pprof,
// /debug/traces, /debug/slo and /debug/captures; it is torn down with
// the service. An address that cannot be bound is returned at once;
// otherwise the returned error is nil after a clean shutdown.
func Serve(ctx context.Context, opts ServerOptions) error {
	s, err := newServer(opts)
	if err != nil {
		return err
	}
	defer s.Close()
	addr := opts.Addr
	if addr == "" {
		addr = ":8484"
	}
	// Bind both listeners before serving, so an address that cannot be
	// bound is Serve's error rather than a listener that never came up.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var debugLn net.Listener
	if opts.DebugAddr != "" {
		if debugLn, err = net.Listen("tcp", opts.DebugAddr); err != nil {
			ln.Close()
			return err
		}
	}
	// Request contexts deliberately do NOT derive from ctx: cancelling
	// ctx triggers the graceful Shutdown below, which lets in-flight
	// requests finish — deriving them would abort that same work
	// mid-request.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	var debugSrv *http.Server
	if debugLn != nil {
		// The operator surface: pprof plus the request-trace ring. Never
		// mounted on the service mux — see ServerOptions.DebugAddr.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debug := s.DebugHandler()
		dmux.Handle("/debug/traces", debug)
		dmux.Handle("/debug/slo", debug)
		dmux.Handle("/debug/captures", debug)
		debugSrv = &http.Server{
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go debugSrv.Serve(debugLn)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	shutdownDebug := func() {
		if debugSrv != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			debugSrv.Shutdown(shutCtx)
		}
	}
	select {
	case err := <-errc:
		shutdownDebug()
		return err
	case <-ctx.Done():
		// Flip readiness before touching listeners: a load balancer that
		// probes /readyz must see 503 while the service still answers, or
		// it will keep routing new work into a closing socket.
		s.SetDraining(true)
		if opts.DrainDelay > 0 {
			t := time.NewTimer(opts.DrainDelay)
			select {
			case <-t.C:
			case err := <-errc:
				t.Stop()
				shutdownDebug()
				return err
			}
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			shutdownDebug()
			return err
		}
		shutdownDebug()
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
