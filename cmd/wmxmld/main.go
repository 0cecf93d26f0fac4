// Command wmxmld is the WmXML watermarking daemon: a multi-tenant HTTP
// service that embeds watermarks into XML documents as they are
// published and detects them later from the receipt registry alone —
// no query sets change hands after embedding.
//
// Usage:
//
//	wmxmld [--addr :8484] [--registry wmxml.jsonl] [--workers N]
//	       [--cache N] [--doc-cache-bytes BYTES] [--max-body BYTES]
//	       [--max-depth N] [--queue-timeout 10s] [--no-sync]
//	       [--compact-on-start] [--insecure-no-auth] [--pprof-addr ADDR]
//	       [--log-level info] [--log-format json] [--trace-ring 32]
//	       [--slo-detect-p99 250ms] [--slo-error-ratio 0.01]
//	       [--watchdog-interval 10s] [--capture-dir DIR]
//	       [--capture-max 8] [--capture-cooldown 5m]
//	       [--capture-cpu 5s] [--drain-delay 0s]
//	       [--registry-backend file|sharded|remote|memory]
//	       [--registry-shards 8] [--registry-url URL]
//	       [--registry-cache-ttl 0s] [--cluster-key KEY]
//	       [--fleet-nodes URL,URL,...] [--fleet-self URL]
//
// Fleet mode: N stateless wmxmld nodes serve one tenant set. One node
// holds the authoritative registry and exports it with --cluster-key
// (mounting /internal/registry/); the others connect to it with
// --registry-backend remote --registry-url. Every node lists the full
// fleet with --fleet-nodes and names itself with --fleet-self;
// owner-scoped requests landing on the wrong node are proxied to the
// owner's consistent-hash home node, so each owner's parsed documents
// warm exactly one cache. Clients may contact any node. On remote
// nodes set --registry-cache-ttl to keep registry round trips off the
// request hot path: each request reads its owner record once, from that
// cache within the TTL, so a rotated key stops authorizing within one
// TTL.
//
// API (see README "Running the service" for a curl walkthrough):
//
//	POST /v1/owners                    register a tenant (key, mark, spec)
//	POST /v1/embed?owner=ID[&doc=L]    XML in, marked XML out; receipt stored
//	POST /v1/embed?owner=ID&mode=stream   chunked: huge XML in, marked XML streamed out,
//	                                      receipt id in the X-Wmxml-Receipt trailer
//	POST /v1/detect?owner=ID           suspect XML in, JSON verdict out
//	POST /v1/detect?owner=ID&mode=stream[-blind]  chunked constant-memory detection
//	POST /v1/verify?owner=ID           schema + key/FD verification
//	POST /v1/fingerprint?owner=ID&recipient=R  recipient-coded copy out; recipient registered
//	POST /v1/trace?owner=ID            suspect XML in, ranked accusations out
//	GET  /v1/owners/{id}/receipts      list stored receipts
//	GET  /v1/owners/{id}/recipients    list tracing candidates
//	GET  /healthz                      liveness (includes the build version)
//	GET  /readyz                       readiness: 503 while draining on shutdown
//	                                   or when the registry stops answering
//	GET  /metrics                      Prometheus text metrics
//
// Observability: every request gets an id — a client-sent W3C
// `traceparent` header's trace-id, or a fresh random one — returned in
// the X-Request-Id response header and in every error body. Structured
// logs (one access-log line per request plus full-fidelity error
// records) go to stderr as JSON (--log-format text for logfmt-style
// lines; --log-level debug|info|warn|error). The --pprof-addr listener
// additionally serves GET /debug/traces (the --trace-ring most recent
// and slowest request traces with per-stage timings), GET /debug/slo
// (per-owner SLO burn rates) and GET /debug/captures (the anomaly
// capture-bundle ring).
//
// Self-monitoring: every /metrics scrape reads runtime/metrics into
// the wmxmld_go_* series; per-owner SLO objectives (--slo-detect-p99,
// --slo-error-ratio, overridable per tenant via the registration
// record's "slo" field) are evaluated over rolling 5m/1h windows into
// wmxmld_slo_burn_rate and wmxmld_slo_budget_remaining; and with
// --capture-dir set, an anomaly watchdog writes capture bundles — pprof heap/goroutine/CPU profiles,
// the slowest traces, metrics and SLO snapshots, the firing rule — to
// a bounded disk ring whenever an objective burns hot in both windows
// or the runtime crosses a memory/goroutine threshold.
//
// Owner-scoped requests authenticate with the owner's secret key:
// `Authorization: Bearer <key>`. Re-registering an existing owner id
// likewise requires the current key. --insecure-no-auth disables the
// check for trusted-network deployments only — with it, any peer that
// can reach the socket can rotate a tenant's key and read its
// safeguarded query sets.
//
// Without --registry all state is in memory and lost on exit; with it,
// owners and receipts live in a crash-safe JSONL log that survives
// restarts. --registry-backend sharded makes --registry a directory of
// such logs, one per shard; remote keeps no local state at all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wmxml"
	"wmxml/internal/obs"
	"wmxml/internal/registry"
)

// version is the build stamp, injected at link time:
//
//	go build -ldflags "-X main.version=$(git rev-parse --short HEAD)" ./cmd/wmxmld
//
// It is reported by --version and by the /healthz endpoint.
var version = "dev"

func main() {
	fs := flag.NewFlagSet("wmxmld", flag.ExitOnError)
	showVersion := fs.Bool("version", false, "print the build version and exit")
	addr := fs.String("addr", ":8484", "listen address")
	regPath := fs.String("registry", "", "JSONL registry file (empty: in-memory, lost on exit)")
	noSync := fs.Bool("no-sync", false, "skip per-append fsync on the registry log (throughput over durability)")
	compact := fs.Bool("compact-on-start", false, "compact the registry log after replaying it")
	workers := fs.Int("workers", 0, "max concurrently executing operations (0 = number of CPUs)")
	cache := fs.Int("cache", 0, "suspect-document cache entries (0 = 128, -1 = off)")
	cacheBytes := fs.Int64("doc-cache-bytes", 0, "suspect-document cache byte cap, weighted by body size (0 = 256 MiB, -1 = unbounded)")
	pprofAddr := fs.String("pprof-addr", "", "serve /debug/pprof and /debug/traces on this separate address (empty = off; keep it off the public interface)")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes (0 = 32 MiB)")
	maxStream := fs.Int64("max-stream", 0, "streaming-endpoint body cap in bytes (0 = 4 GiB)")
	streamChunk := fs.Int("stream-chunk", 0, "records per chunk on the streaming endpoints (0 = 256)")
	maxDepth := fs.Int("max-depth", 0, "XML nesting cap (0 = library default)")
	queueTimeout := fs.Duration("queue-timeout", 10*time.Second, "max wait for a worker slot before 503")
	noAuth := fs.Bool("insecure-no-auth", false, "serve without Bearer-key authentication (trusted networks only)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "json", "log line format: json|text")
	traceRing := fs.Int("trace-ring", 0, "request traces retained for /debug/traces (0 = 32, -1 = tracing off)")
	sloDetectP99 := fs.Duration("slo-detect-p99", 0, "default detect latency objective at p99 (0 = 250ms, negative = off; per-owner override via the registration record)")
	sloErrorRatio := fs.Float64("slo-error-ratio", 0, "default tolerated 5xx fraction (0 = 0.01, negative = off)")
	watchdogInterval := fs.Duration("watchdog-interval", 0, "anomaly rule evaluation period (0 = 10s)")
	captureDir := fs.String("capture-dir", "", "write anomaly capture bundles into this directory's bounded ring (empty = watchdog off)")
	captureMax := fs.Int("capture-max", 0, "capture bundles kept before the oldest is evicted (0 = 8)")
	captureCooldown := fs.Duration("capture-cooldown", 0, "min time between bundles for one firing rule (0 = 5m)")
	captureCPU := fs.Duration("capture-cpu", 0, "CPU profile length recorded into each bundle (0 = 5s, negative = skip)")
	drainDelay := fs.Duration("drain-delay", 0, "how long /readyz answers 503 before listeners close on shutdown (0 = immediate)")
	regBackend := fs.String("registry-backend", "", "registry backend: file|sharded|remote|memory (empty: file when --registry is set, else memory)")
	regShards := fs.Int("registry-shards", 8, "shard count for --registry-backend sharded (fixed at creation)")
	regURL := fs.String("registry-url", "", "base URL of the registry-holding node for --registry-backend remote")
	regCacheTTL := fs.Duration("registry-cache-ttl", 0, "remote-registry read cache TTL (0 = revalidate every read)")
	clusterKey := fs.String("cluster-key", "", "shared fleet secret; serves the node-to-node registry API under /internal/registry/ and authenticates remote registry clients")
	fleetNodes := fs.String("fleet-nodes", "", "comma-separated addresses of every fleet node; enables consistent-hash owner routing")
	fleetSelf := fs.String("fleet-self", "", "this node's own address as listed in --fleet-nodes")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *showVersion {
		fmt.Printf("wmxmld %s\n", version)
		return
	}
	if _, err := obs.ParseLevel(*logLevel); err != nil {
		fmt.Fprintf(os.Stderr, "wmxmld: %v\n", err)
		os.Exit(2)
	}

	// The daemon's own lifecycle lines go through the same structured
	// logger the server uses for its access log, so stderr is uniformly
	// machine-parseable.
	logger := obs.NewLogger(os.Stderr, obs.LogOptions{Level: *logLevel, Format: *logFormat})

	backend := *regBackend
	if backend == "" {
		if *regPath != "" {
			backend = "file"
		} else {
			backend = "memory"
		}
	}
	fopts := registry.FileOptions{NoSync: *noSync, CompactOnOpen: *compact}
	var store wmxml.ReceiptStore
	var err error
	switch backend {
	case "memory":
		store = wmxml.NewMemoryRegistry()
		logger.Info("in-memory registry (state is lost on exit)")
	case "file":
		if *regPath == "" {
			logger.Error("--registry-backend file requires --registry PATH")
			os.Exit(2)
		}
		store, err = registry.OpenFile(*regPath, fopts)
	case "sharded":
		if *regPath == "" {
			logger.Error("--registry-backend sharded requires --registry DIR")
			os.Exit(2)
		}
		store, err = registry.OpenSharded(*regPath, *regShards, fopts)
	case "remote":
		if *regURL == "" || *clusterKey == "" {
			logger.Error("--registry-backend remote requires --registry-url and --cluster-key")
			os.Exit(2)
		}
		store, err = registry.OpenRemote(*regURL, registry.RemoteOptions{Key: *clusterKey, CacheTTL: *regCacheTTL})
	default:
		logger.Error("unknown --registry-backend", "backend", backend)
		os.Exit(2)
	}
	if err != nil {
		logger.Error("registry open failed", "backend", backend, "path", *regPath, "url", *regURL, "error", err.Error())
		os.Exit(1)
	}
	if backend != "memory" {
		defer store.Close()
		owners, _ := store.ListOwners()
		logger.Info("registry opened", "backend", backend, "path", *regPath, "url", *regURL, "owners", len(owners))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *noAuth {
		logger.Warn("running with --insecure-no-auth: any peer can act as any owner")
	}
	if *pprofAddr != "" {
		logger.Info("debug listener", "addr", *pprofAddr, "endpoints", "/debug/pprof/, /debug/traces, /debug/slo, /debug/captures")
	}
	if *captureDir != "" {
		logger.Info("anomaly watchdog armed", "capture_dir", *captureDir)
	}
	var nodes []string
	if *fleetNodes != "" {
		for _, n := range strings.Split(*fleetNodes, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) >= 2 && *fleetSelf == "" {
			logger.Error("--fleet-nodes with 2+ nodes requires --fleet-self")
			os.Exit(2)
		}
		logger.Info("fleet routing", "nodes", len(nodes), "self", *fleetSelf)
	}
	logger.Info("listening", "addr", *addr, "version", version)
	err = wmxml.Serve(ctx, wmxml.ServerOptions{
		Addr:                 *addr,
		Registry:             store,
		Workers:              *workers,
		QueueTimeout:         *queueTimeout,
		MaxBodyBytes:         *maxBody,
		MaxStreamBytes:       *maxStream,
		StreamChunkSize:      *streamChunk,
		MaxDepth:             *maxDepth,
		CacheEntries:         *cache,
		CacheBytes:           *cacheBytes,
		AllowUnauthenticated: *noAuth,
		Version:              version,
		LogWriter:            os.Stderr,
		LogLevel:             *logLevel,
		LogFormat:            *logFormat,
		TraceRing:            *traceRing,
		DebugAddr:            *pprofAddr,
		SLODetectP99:         *sloDetectP99,
		SLOErrorRatio:        *sloErrorRatio,
		WatchdogInterval:     *watchdogInterval,
		CaptureDir:           *captureDir,
		CaptureMax:           *captureMax,
		CaptureCooldown:      *captureCooldown,
		CaptureCPUProfile:    *captureCPU,
		DrainDelay:           *drainDelay,
		ClusterKey:           *clusterKey,
		FleetNodes:           nodes,
		FleetSelf:            *fleetSelf,
	})
	if err != nil {
		logger.Error("server exited", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("shut down cleanly")
}
