package server

// Hand-rolled counters and latency histograms with Prometheus text
// exposition. The container bakes in no metrics dependency, and the
// subset the service needs — monotone counters, one histogram per
// endpoint and per pipeline stage, a gauge or two — is small enough to
// own: every metric is an atomic, rendering walks a snapshot of the
// registry, and the output follows the text format any Prometheus
// scraper ingests (and the promtext lint test parses).

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wmxml/internal/obs"
)

// latencyBuckets are the histogram upper bounds in seconds: 250µs to
// 10s, roughly ×2.5 per step — embeds on big documents sit mid-range,
// cache-hit detects in the first buckets.
var latencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets are the per-stage histogram bounds: stages (a cache
// lookup, a vote fold) run one to three orders of magnitude below whole
// requests, so the ladder starts at 10µs.
var stageBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 2.5,
}

// ownerCardinalityCap bounds the distinct owner label values exposed;
// tenants past the cap aggregate into owner="other" so a registration
// flood cannot grow /metrics without bound.
const ownerCardinalityCap = 64

// ownerOverflow is the owner label of the overflow bucket.
const ownerOverflow = "other"

// counter is a monotone atomic counter.
type counter struct {
	v atomic.Uint64
}

func (c *counter) Inc()          { c.v.Add(1) }
func (c *counter) Add(n uint64)  { c.v.Add(n) }
func (c *counter) Value() uint64 { return c.v.Load() }

// gauge is a settable atomic value.
type gauge struct {
	v atomic.Int64
}

func (g *gauge) Set(n int64)  { g.v.Store(n) }
func (g *gauge) Add(n int64)  { g.v.Add(n) }
func (g *gauge) Value() int64 { return g.v.Load() }

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	buckets []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64 // sum in nanoseconds keeps the hot path integer-only
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets))}
}

// Observe records one duration. The total count is bumped before the
// bucket so a concurrent scrape always sees count >= any cumulative
// bucket value — le="+Inf" stays monotone (an observation may briefly
// appear un-bucketed, which is valid; the reverse is not).
func (h *histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
	s := d.Seconds()
	for i, ub := range h.buckets {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
}

// ownerStats is the per-tenant counter block. Fixed fields rather than
// a label map: the op set is closed and the fold is branch-free of
// locks.
type ownerStats struct {
	requests     counter
	docBytes     counter
	cacheHits    counter
	embeds       counter
	detects      counter
	delivers     counter
	fingerprints counter
	traces       counter
	verifies     counter
}

// opCounter maps an op label to its counter, nil for unknown ops.
func (o *ownerStats) opCounter(op string) *counter {
	switch op {
	case "embed":
		return &o.embeds
	case "detect":
		return &o.detects
	case "deliver":
		return &o.delivers
	case "fingerprint":
		return &o.fingerprints
	case "trace":
		return &o.traces
	case "verify":
		return &o.verifies
	}
	return nil
}

// ownerOps is the exposition order of the per-owner op counters.
var ownerOps = []struct {
	op  string
	get func(*ownerStats) *counter
}{
	{"embed", func(o *ownerStats) *counter { return &o.embeds }},
	{"detect", func(o *ownerStats) *counter { return &o.detects }},
	{"deliver", func(o *ownerStats) *counter { return &o.delivers }},
	{"fingerprint", func(o *ownerStats) *counter { return &o.fingerprints }},
	{"trace", func(o *ownerStats) *counter { return &o.traces }},
	{"verify", func(o *ownerStats) *counter { return &o.verifies }},
}

// metrics is the service's metric registry. Labelled series are
// materialized on first use and never removed (label cardinality is
// bounded: one series per route × status class, a fixed stage set, and
// owners capped at ownerCardinalityCap plus the overflow bucket).
type metrics struct {
	mu             sync.Mutex
	requests       map[string]*counter   // route|code -> count
	latency        map[string]*histogram // route -> latency
	stages         map[string]*histogram // stage -> span duration
	owners         map[string]*ownerStats
	inflight       gauge
	queueFull      counter // admissions rejected: queue wait exceeded
	tooLarge       counter // requests rejected: body over the cap
	cacheHits      counter
	cacheMiss      counter
	cacheCoalesced counter // cold requests that waited on another's parse (singleflight)
	cacheEvict     counter
	cacheSize      gauge
	cacheBytes     gauge
	fleetProxied   counter // requests routed to their owner's home node
	decodePlanHits counter
	decodePlanMiss counter
	embeds         counter
	detects        counter
	detected       counter
	verifies       counter
	fingerprints   counter
	traces         counter
	traceAccused   counter
	streamEmbeds   counter
	streamDetects  counter
	streamChunks   counter
	delivers       counter
	planCompiles   counter
	planHits       counter
	captures       counter // anomaly capture bundles written
	startUnix      int64
	version        string

	// Snapshot providers wired by server.New: the latest runtime-health
	// sample and the SLO engine's evaluation. Both read atomics or take
	// short per-owner locks of their own — never the registry mutex — so
	// the single-lock render discipline holds.
	runtimeSnap func() *obs.RuntimeSnapshot
	sloEval     func() []SLOOwnerEval
}

func newMetrics(version string) *metrics {
	return &metrics{
		requests:  make(map[string]*counter),
		latency:   make(map[string]*histogram),
		stages:    make(map[string]*histogram),
		owners:    make(map[string]*ownerStats),
		startUnix: time.Now().Unix(),
		version:   version,
	}
}

// request records one finished HTTP request.
func (m *metrics) request(route string, code int, d time.Duration) {
	key := fmt.Sprintf("%s|%d", route, code)
	m.mu.Lock()
	c := m.requests[key]
	if c == nil {
		c = &counter{}
		m.requests[key] = c
	}
	h := m.latency[route]
	if h == nil {
		h = newHistogram(latencyBuckets)
		m.latency[route] = h
	}
	m.mu.Unlock()
	c.Inc()
	h.Observe(d)
}

// stage records one span duration under its stage label.
func (m *metrics) stage(name string, d time.Duration) {
	m.mu.Lock()
	h := m.stages[name]
	if h == nil {
		h = newHistogram(stageBuckets)
		m.stages[name] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// ownerFor materializes (or overflows) the per-tenant counter block.
func (m *metrics) ownerFor(owner string) *ownerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.owners[owner]
	if o == nil {
		if len(m.owners) >= ownerCardinalityCap {
			if o = m.owners[ownerOverflow]; o == nil {
				o = &ownerStats{}
				m.owners[ownerOverflow] = o
			}
			return o
		}
		o = &ownerStats{}
		m.owners[owner] = o
	}
	return o
}

// finishRequest folds one completed trace snapshot into the request
// histogram, the per-stage histograms and the per-owner counters — the
// single exposition point instrument() calls.
func (m *metrics) finishRequest(snap *obs.Snapshot, route string, code int, d time.Duration) {
	m.request(route, code, d)
	if snap == nil {
		return
	}
	for name, dur := range snap.StageDurations() {
		m.stage(name, dur)
	}
	if snap.Owner == "" {
		return
	}
	o := m.ownerFor(snap.Owner)
	o.requests.Inc()
	if snap.DocBytes > 0 {
		o.docBytes.Add(uint64(snap.DocBytes))
	}
	if snap.CacheHit {
		o.cacheHits.Inc()
	}
	if code < 400 && snap.Op != "" {
		if c := o.opCounter(snap.Op); c != nil {
			c.Inc()
		}
	}
}

// render writes the Prometheus text exposition. Both labelled maps are
// snapshotted under one lock acquisition; everything after renders
// lock-free (the values themselves are atomics, and materialized
// series are never removed).
func (m *metrics) render(w io.Writer) {
	type reqSeries struct {
		route, code string
		c           *counter
	}
	type latSeries struct {
		label string
		h     *histogram
	}
	type ownSeries struct {
		owner string
		o     *ownerStats
	}
	m.mu.Lock()
	reqs := make([]reqSeries, 0, len(m.requests))
	for k, c := range m.requests {
		route, code, _ := strings.Cut(k, "|")
		reqs = append(reqs, reqSeries{route: route, code: code, c: c})
	}
	lats := make([]latSeries, 0, len(m.latency))
	for k, h := range m.latency {
		lats = append(lats, latSeries{label: k, h: h})
	}
	stages := make([]latSeries, 0, len(m.stages))
	for k, h := range m.stages {
		stages = append(stages, latSeries{label: k, h: h})
	}
	owners := make([]ownSeries, 0, len(m.owners))
	for k, o := range m.owners {
		owners = append(owners, ownSeries{owner: k, o: o})
	}
	m.mu.Unlock()
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].route != reqs[j].route {
			return reqs[i].route < reqs[j].route
		}
		return reqs[i].code < reqs[j].code
	})
	sort.Slice(lats, func(i, j int) bool { return lats[i].label < lats[j].label })
	sort.Slice(stages, func(i, j int) bool { return stages[i].label < stages[j].label })
	sort.Slice(owners, func(i, j int) bool { return owners[i].owner < owners[j].owner })

	fmt.Fprintln(w, "# HELP wmxmld_requests_total Finished HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE wmxmld_requests_total counter")
	for _, s := range reqs {
		fmt.Fprintf(w, "wmxmld_requests_total{route=%q,code=%q} %d\n", s.route, s.code, s.c.Value())
	}

	renderHistograms := func(name, help, label string, hs []latSeries) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, s := range hs {
			var cum uint64
			for i, ub := range s.h.buckets {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, s.label, formatLE(ub), cum)
			}
			// One count read per series: a second read could see a
			// request that finished in between and tear +Inf from _count.
			n := s.h.count.Load()
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, s.label, n)
			fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, s.label, float64(s.h.sumNs.Load())/1e9)
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, s.label, n)
		}
	}
	renderHistograms("wmxmld_request_seconds", "Request latency by route.", "route", lats)
	renderHistograms("wmxmld_stage_seconds", "Pipeline stage latency from request span traces.", "stage", stages)

	simple := []struct {
		name, help string
		value      uint64
	}{
		{"wmxmld_admission_rejected_total", "Requests rejected because the worker queue stayed full.", m.queueFull.Value()},
		{"wmxmld_body_too_large_total", "Requests rejected because the body exceeded the cap.", m.tooLarge.Value()},
		{"wmxmld_doc_cache_hits_total", "Suspect-document cache hits (reparse and index build skipped).", m.cacheHits.Value()},
		{"wmxmld_doc_cache_misses_total", "Suspect-document cache misses.", m.cacheMiss.Value()},
		{"wmxmld_doc_cache_coalesced_total", "Cold requests that shared another request's in-flight parse (singleflight).", m.cacheCoalesced.Value()},
		{"wmxmld_doc_cache_evictions_total", "Suspect-document cache evictions.", m.cacheEvict.Value()},
		{"wmxmld_fleet_proxied_total", "Requests proxied to the owner's home node by consistent-hash routing.", m.fleetProxied.Value()},
		{"wmxmld_plan_cache_hits_total", "Decode-plan cache hits (query compilation skipped).", m.decodePlanHits.Value()},
		{"wmxmld_plan_cache_misses_total", "Decode-plan cache misses (plan compiled).", m.decodePlanMiss.Value()},
		{"wmxmld_embeds_total", "Successful embed operations.", m.embeds.Value()},
		{"wmxmld_detects_total", "Completed detect operations.", m.detects.Value()},
		{"wmxmld_detects_detected_total", "Detect operations that found the watermark.", m.detected.Value()},
		{"wmxmld_verifies_total", "Completed verify operations.", m.verifies.Value()},
		{"wmxmld_fingerprints_total", "Successful fingerprint (per-recipient embed) operations.", m.fingerprints.Value()},
		{"wmxmld_traces_total", "Completed trace operations.", m.traces.Value()},
		{"wmxmld_traces_accused_total", "Trace operations that accused at least one recipient.", m.traceAccused.Value()},
		{"wmxmld_stream_embeds_total", "Successful streaming (mode=stream) embed operations.", m.streamEmbeds.Value()},
		{"wmxmld_stream_detects_total", "Completed streaming detect operations.", m.streamDetects.Value()},
		{"wmxmld_stream_chunks_total", "Record chunks processed by the streaming endpoints.", m.streamChunks.Value()},
		{"wmxmld_delivers_total", "Recipient copies spliced from a delivery plan.", m.delivers.Value()},
		{"wmxmld_deliver_plan_compiles_total", "Delivery-plan compilations.", m.planCompiles.Value()},
		{"wmxmld_deliver_plan_hits_total", "Deliveries served from an already-compiled plan.", m.planHits.Value()},
	}
	for _, s := range simple {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", s.name, s.help, s.name, s.name, s.value)
	}

	if len(owners) > 0 {
		fmt.Fprintln(w, "# HELP wmxmld_owner_requests_total Finished requests by owner (cardinality-capped; overflow under owner=\"other\").")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_requests_total counter")
		for _, s := range owners {
			fmt.Fprintf(w, "wmxmld_owner_requests_total{owner=%q} %d\n", s.owner, s.o.requests.Value())
		}
		fmt.Fprintln(w, "# HELP wmxmld_owner_ops_total Successful operations by owner and op.")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_ops_total counter")
		for _, s := range owners {
			for _, op := range ownerOps {
				fmt.Fprintf(w, "wmxmld_owner_ops_total{owner=%q,op=%q} %d\n", s.owner, op.op, op.get(s.o).Value())
			}
		}
		fmt.Fprintln(w, "# HELP wmxmld_owner_cache_hits_total Suspect-document cache hits by owner.")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_cache_hits_total counter")
		for _, s := range owners {
			fmt.Fprintf(w, "wmxmld_owner_cache_hits_total{owner=%q} %d\n", s.owner, s.o.cacheHits.Value())
		}
		fmt.Fprintln(w, "# HELP wmxmld_owner_doc_bytes_total Request document bytes by owner.")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_doc_bytes_total counter")
		for _, s := range owners {
			fmt.Fprintf(w, "wmxmld_owner_doc_bytes_total{owner=%q} %d\n", s.owner, s.o.docBytes.Value())
		}
	}

	fmt.Fprintf(w, "# HELP wmxmld_inflight_requests Requests currently holding a worker slot.\n# TYPE wmxmld_inflight_requests gauge\nwmxmld_inflight_requests %d\n", m.inflight.Value())
	fmt.Fprintf(w, "# HELP wmxmld_doc_cache_entries Documents currently cached.\n# TYPE wmxmld_doc_cache_entries gauge\nwmxmld_doc_cache_entries %d\n", m.cacheSize.Value())
	fmt.Fprintf(w, "# HELP wmxmld_doc_cache_bytes Total source-byte weight of cached documents.\n# TYPE wmxmld_doc_cache_bytes gauge\nwmxmld_doc_cache_bytes %d\n", m.cacheBytes.Value())
	fmt.Fprintf(w, "# HELP wmxmld_start_time_seconds Unix time the server started.\n# TYPE wmxmld_start_time_seconds gauge\nwmxmld_start_time_seconds %d\n", m.startUnix)
	fmt.Fprintf(w, "# HELP wmxmld_uptime_seconds Seconds since the server started.\n# TYPE wmxmld_uptime_seconds gauge\nwmxmld_uptime_seconds %d\n", max(0, time.Now().Unix()-m.startUnix))
	fmt.Fprintf(w, "# HELP wmxmld_captures_total Anomaly capture bundles written to the --capture-dir ring.\n# TYPE wmxmld_captures_total counter\nwmxmld_captures_total %d\n", m.captures.Value())
	if m.runtimeSnap != nil {
		if s := m.runtimeSnap(); s != nil {
			renderRuntime(w, s)
		}
	}
	if m.sloEval != nil {
		renderSLO(w, m.sloEval())
	}
	fmt.Fprintf(w, "# HELP wmxmld_build_info Build metadata; the value is always 1.\n# TYPE wmxmld_build_info gauge\nwmxmld_build_info{version=%q} 1\n", m.version)
}

// renderRuntime writes the wmxmld_go_* process-health series from one
// immutable runtime snapshot (the collector swaps a fresh pointer per
// sample, so a scrape can never observe a torn histogram).
func renderRuntime(w io.Writer, s *obs.RuntimeSnapshot) {
	gauges := []struct {
		name, help string
		value      int64
		skip       bool
	}{
		{"wmxmld_go_goroutines", "Live goroutines.", s.Goroutines, false},
		{"wmxmld_go_heap_live_bytes", "Heap bytes live after the last GC.", s.HeapLiveBytes, false},
		{"wmxmld_go_heap_goal_bytes", "Heap size the garbage collector is pacing toward.", s.HeapGoalBytes, false},
		{"wmxmld_go_gomemlimit_bytes", "Effective GOMEMLIMIT (0 = no limit set).", s.MemLimitBytes, false},
		{"wmxmld_go_open_fds", "Open file descriptors (omitted where the platform cannot count them).", s.OpenFDs, s.OpenFDs < 0},
		{"wmxmld_go_runtime_sample_time_seconds", "Unix time the runtime health sample was taken.", s.SampledUnix, false},
	}
	for _, g := range gauges {
		if g.skip {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.value)
	}
	fmt.Fprintf(w, "# HELP wmxmld_go_gc_cycles_total Completed GC cycles.\n# TYPE wmxmld_go_gc_cycles_total counter\nwmxmld_go_gc_cycles_total %d\n", s.GCCycles)
	renderRuntimeHist(w, "wmxmld_go_gc_pause_seconds", "Stop-the-world GC pause distribution over the process lifetime.", s.GCPause)
	renderRuntimeHist(w, "wmxmld_go_sched_latency_seconds", "Goroutine scheduling latency distribution over the process lifetime.", s.SchedLatency)
}

// renderRuntimeHist writes one folded runtime histogram. Counts are
// already cumulative; overflow past the ladder rides only in Count, so
// le="+Inf" equals _count by construction.
func renderRuntimeHist(w io.Writer, name, help string, h obs.RuntimeHistogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, ub := range h.Bounds {
		var n uint64
		if i < len(h.Counts) {
			n = h.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(ub), n)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// renderSLO writes the wmxmld_slo_* gauges from one engine evaluation —
// the same evaluation /debug/slo serves, so the surfaces agree.
func renderSLO(w io.Writer, evals []SLOOwnerEval) {
	if len(evals) == 0 {
		return
	}
	windows := func(e SLOOwnerEval) [2]struct {
		name string
		ev   SLOWindowEval
	} {
		return [2]struct {
			name string
			ev   SLOWindowEval
		}{{"5m", e.Fast}, {"1h", e.Slow}}
	}
	fmt.Fprintln(w, "# HELP wmxmld_slo_burn_rate Error-budget burn rate by owner, objective and window (1 = burning exactly at budget; owner=\"_total\" is the service aggregate).")
	fmt.Fprintln(w, "# TYPE wmxmld_slo_burn_rate gauge")
	for _, e := range evals {
		for _, wv := range windows(e) {
			fmt.Fprintf(w, "wmxmld_slo_burn_rate{owner=%q,slo=\"detect_p99\",window=%q} %g\n", e.Owner, wv.name, wv.ev.DetectBurn)
			fmt.Fprintf(w, "wmxmld_slo_burn_rate{owner=%q,slo=\"error_ratio\",window=%q} %g\n", e.Owner, wv.name, wv.ev.ErrorBurn)
		}
	}
	fmt.Fprintln(w, "# HELP wmxmld_slo_budget_remaining Fraction of the window's error budget left (1 - burn rate; negative once overspent).")
	fmt.Fprintln(w, "# TYPE wmxmld_slo_budget_remaining gauge")
	for _, e := range evals {
		for _, wv := range windows(e) {
			fmt.Fprintf(w, "wmxmld_slo_budget_remaining{owner=%q,slo=\"detect_p99\",window=%q} %g\n", e.Owner, wv.name, wv.ev.DetectBudget)
			fmt.Fprintf(w, "wmxmld_slo_budget_remaining{owner=%q,slo=\"error_ratio\",window=%q} %g\n", e.Owner, wv.name, wv.ev.ErrorBudget)
		}
	}
}

// formatLE renders a bucket bound in its shortest decimal form.
func formatLE(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
