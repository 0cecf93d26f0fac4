package server

// Hand-rolled counters and latency histograms with Prometheus text
// exposition. The container bakes in no metrics dependency, and the
// subset the service needs — monotone counters, one histogram per
// endpoint and per pipeline stage, a gauge or two — is small enough to
// own: every metric is an atomic, rendering walks a snapshot of the
// registry, and the output follows the text format any Prometheus
// scraper ingests (and the promtext lint test parses).
//
// Each finished request is folded once (finishRequest): the route and
// stage series and the tenant's owner block are found under one lock,
// then updated outside it. An owner block holds the tenant's counters
// and its SLO windows together, created under the one cardinality cap,
// so /metrics, /debug/slo and the watchdog always name the same owners.

import (
	"cmp"
	"fmt"
	"io"
	"slices"
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

// ownerOps is the closed set of per-owner op labels, in exposition
// order; ownerStats.ops is indexed by it.
var ownerOps = [...]string{"embed", "detect", "deliver", "fingerprint", "trace", "verify"}

// counter is a monotone atomic counter.
type counter struct {
	v atomic.Uint64
}

func (c *counter) Inc()          { c.v.Add(1) }
func (c *counter) Add(n uint64)  { c.v.Add(n) }
func (c *counter) Value() uint64 { return c.v.Load() }

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

// snapshot reads the histogram cumulatively. The buckets are read
// before the count, the reverse of Observe's order, so the total (the
// +Inf bucket) is never below the last cumulative bucket.
func (h *histogram) snapshot() obs.Histogram {
	out := obs.Histogram{Bounds: h.buckets, Counts: make([]uint64, len(h.buckets))}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out.Counts[i] = cum
	}
	out.Count = h.count.Load()
	out.Sum = float64(h.sumNs.Load()) / 1e9
	return out
}

// ownerStats is one tenant's block (or the overflow's): its counters
// and its SLO windows.
type ownerStats struct {
	requests  counter
	docBytes  counter
	cacheHits counter
	ops       [len(ownerOps)]counter
	slo       *sloState
}

// reqKey labels one wmxmld_requests_total series.
type reqKey struct {
	route string
	code  int
}

// metrics is the service's metric registry. Labelled series are
// materialized on first use and never removed (label cardinality is
// bounded: one series per route × status code, a fixed stage set, and
// owners capped at ownerCardinalityCap plus the overflow bucket).
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]*counter
	latency  map[string]*histogram // route -> latency
	stages   map[string]*histogram // stage -> span duration
	owners   map[string]*ownerStats
	total    *sloState // the service-wide SLO windows (owner "_total")

	// sloDefaults are the objectives an owner without an override gets;
	// sloResolve (nil = defaults only) looks up an owner's own.
	sloDefaults sloObjectives
	sloResolve  func(owner string) (sloObjectives, bool)

	queueFull      counter // admissions rejected: queue wait exceeded
	tooLarge       counter // requests rejected: body over the cap
	cacheHits      counter
	cacheMiss      counter
	cacheCoalesced counter // cold requests that waited on another's parse (singleflight)
	cacheEvict     counter
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
}

func newMetrics(version string, sloDefaults sloObjectives, sloResolve func(owner string) (sloObjectives, bool)) *metrics {
	total := newSLOState()
	total.obj, total.resolved = sloDefaults, true
	return &metrics{
		requests:    make(map[reqKey]*counter),
		latency:     make(map[string]*histogram),
		stages:      make(map[string]*histogram),
		owners:      make(map[string]*ownerStats),
		total:       total,
		sloDefaults: sloDefaults,
		sloResolve:  sloResolve,
		startUnix:   time.Now().Unix(),
		version:     version,
	}
}

// finishRequest folds one finished request into the route's counter
// and latency histogram, the per-stage histograms, the owner block's
// counters and SLO windows, and the service-wide SLO windows — the one
// telemetry call instrument() makes. Once the series exist it
// allocates nothing (TestSLORecordNoAllocs).
func (m *metrics) finishRequest(snap *obs.Snapshot, route string, code int, d time.Duration) {
	var sbuf [16]obs.StageDuration
	var hbuf [16]*histogram
	stages, hs := snap.StageDurations(sbuf[:]), hbuf[:0]

	m.mu.Lock()
	c := m.requests[reqKey{route, code}]
	if c == nil {
		c = &counter{}
		m.requests[reqKey{route, code}] = c
	}
	h := m.latency[route]
	if h == nil {
		h = newHistogram(latencyBuckets)
		m.latency[route] = h
	}
	for _, st := range stages {
		sh := m.stages[st.Name]
		if sh == nil {
			sh = newHistogram(stageBuckets)
			m.stages[st.Name] = sh
		}
		hs = append(hs, sh)
	}
	var o *ownerStats
	label := snap.Owner
	if label != "" {
		if o = m.owners[label]; o == nil && len(m.owners) >= ownerCardinalityCap {
			label = ownerOverflow
			o = m.owners[label]
		}
		if o == nil {
			o = &ownerStats{slo: newSLOState()}
			m.owners[label] = o
		}
	}
	m.mu.Unlock()

	c.Inc()
	h.Observe(d)
	for i, st := range stages {
		hs[i].Observe(st.D)
	}
	now := time.Now().Unix()
	m.recordSLO(m.total, sloTotalOwner, snap.Op, code, d, now)
	if o == nil {
		return
	}
	o.requests.Inc()
	o.docBytes.Add(uint64(max(snap.DocBytes, 0)))
	if snap.CacheHit {
		o.cacheHits.Inc()
	}
	if i := slices.Index(ownerOps[:], snap.Op); i >= 0 && code < 400 {
		o.ops[i].Inc()
	}
	m.recordSLO(o.slo, label, snap.Op, code, d, now)
}

// keyed is one map entry, so a reader can copy a map under the lock
// and sort and read the entries after releasing it.
type keyed[K comparable, V any] struct {
	k K
	v V
}

// entries copies m's entries. Caller holds the lock guarding m.
func entries[K comparable, V any](m map[K]V) []keyed[K, V] {
	out := make([]keyed[K, V], 0, len(m))
	for k, v := range m {
		out = append(out, keyed[K, V]{k, v})
	}
	return out
}

// sortByKey orders es by key.
func sortByKey[K comparable, V any](es []keyed[K, V], compare func(a, b K) int) {
	slices.SortFunc(es, func(a, b keyed[K, V]) int { return compare(a.k, b.k) })
}

// family is one single-sample family of the exposition.
type family struct {
	name, typ, help string
	value           any
}

// render writes the Prometheus text exposition. The labelled maps are
// snapshotted under one lock acquisition; everything after renders
// lock-free (the values themselves are atomics, and materialized
// series are never removed). The gauges that describe server state —
// worker slots held and the document cache's size — are read by the
// caller at scrape time, and the runtime health is read here.
func (m *metrics) render(w io.Writer, inflight, cacheEntries int, cacheBytes int64) {
	m.mu.Lock()
	reqs, lats, stages, owners := entries(m.requests), entries(m.latency), entries(m.stages), entries(m.owners)
	m.mu.Unlock()
	sortByKey(reqs, func(a, b reqKey) int {
		return cmp.Or(strings.Compare(a.route, b.route), cmp.Compare(a.code, b.code))
	})
	sortByKey(lats, strings.Compare)
	sortByKey(stages, strings.Compare)
	sortByKey(owners, strings.Compare)

	fmt.Fprintln(w, "# HELP wmxmld_requests_total Finished HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE wmxmld_requests_total counter")
	for _, s := range reqs {
		fmt.Fprintf(w, "wmxmld_requests_total{route=%q,code=\"%d\"} %d\n", s.k.route, s.k.code, s.v.Value())
	}
	writeHistograms(w, "wmxmld_request_seconds", "Request latency by route.", "route", snapshots(lats))
	writeHistograms(w, "wmxmld_stage_seconds", "Pipeline stage latency from request span traces.", "stage", snapshots(stages))

	writeFamilies(w, []family{
		{"wmxmld_admission_rejected_total", "counter", "Requests rejected because the worker queue stayed full.", m.queueFull.Value()},
		{"wmxmld_body_too_large_total", "counter", "Requests rejected because the body exceeded the cap.", m.tooLarge.Value()},
		{"wmxmld_doc_cache_hits_total", "counter", "Suspect-document cache hits (reparse and index build skipped).", m.cacheHits.Value()},
		{"wmxmld_doc_cache_misses_total", "counter", "Suspect-document cache misses.", m.cacheMiss.Value()},
		{"wmxmld_doc_cache_coalesced_total", "counter", "Cold requests that shared another request's in-flight parse (singleflight).", m.cacheCoalesced.Value()},
		{"wmxmld_doc_cache_evictions_total", "counter", "Suspect-document cache evictions.", m.cacheEvict.Value()},
		{"wmxmld_fleet_proxied_total", "counter", "Requests proxied to the owner's home node by consistent-hash routing.", m.fleetProxied.Value()},
		{"wmxmld_plan_cache_hits_total", "counter", "Decode-plan cache hits (query compilation skipped).", m.decodePlanHits.Value()},
		{"wmxmld_plan_cache_misses_total", "counter", "Decode-plan cache misses (plan compiled).", m.decodePlanMiss.Value()},
		{"wmxmld_embeds_total", "counter", "Successful embed operations.", m.embeds.Value()},
		{"wmxmld_detects_total", "counter", "Completed detect operations.", m.detects.Value()},
		{"wmxmld_detects_detected_total", "counter", "Detect operations that found the watermark.", m.detected.Value()},
		{"wmxmld_verifies_total", "counter", "Completed verify operations.", m.verifies.Value()},
		{"wmxmld_fingerprints_total", "counter", "Successful fingerprint (per-recipient embed) operations.", m.fingerprints.Value()},
		{"wmxmld_traces_total", "counter", "Completed trace operations.", m.traces.Value()},
		{"wmxmld_traces_accused_total", "counter", "Trace operations that accused at least one recipient.", m.traceAccused.Value()},
		{"wmxmld_stream_embeds_total", "counter", "Successful streaming (mode=stream) embed operations.", m.streamEmbeds.Value()},
		{"wmxmld_stream_detects_total", "counter", "Completed streaming detect operations.", m.streamDetects.Value()},
		{"wmxmld_stream_chunks_total", "counter", "Record chunks processed by the streaming endpoints.", m.streamChunks.Value()},
		{"wmxmld_delivers_total", "counter", "Recipient copies spliced from a delivery plan.", m.delivers.Value()},
		{"wmxmld_deliver_plan_compiles_total", "counter", "Delivery-plan compilations.", m.planCompiles.Value()},
		{"wmxmld_deliver_plan_hits_total", "counter", "Deliveries served from an already-compiled plan.", m.planHits.Value()},
	})

	if len(owners) > 0 {
		fmt.Fprintln(w, "# HELP wmxmld_owner_requests_total Finished requests by owner (cardinality-capped; overflow under owner=\"other\").")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_requests_total counter")
		for _, s := range owners {
			fmt.Fprintf(w, "wmxmld_owner_requests_total{owner=%q} %d\n", s.k, s.v.requests.Value())
		}
		fmt.Fprintln(w, "# HELP wmxmld_owner_ops_total Successful operations by owner and op.")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_ops_total counter")
		for _, s := range owners {
			for i, op := range ownerOps {
				fmt.Fprintf(w, "wmxmld_owner_ops_total{owner=%q,op=%q} %d\n", s.k, op, s.v.ops[i].Value())
			}
		}
		fmt.Fprintln(w, "# HELP wmxmld_owner_cache_hits_total Suspect-document cache hits by owner.")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_cache_hits_total counter")
		for _, s := range owners {
			fmt.Fprintf(w, "wmxmld_owner_cache_hits_total{owner=%q} %d\n", s.k, s.v.cacheHits.Value())
		}
		fmt.Fprintln(w, "# HELP wmxmld_owner_doc_bytes_total Request document bytes by owner.")
		fmt.Fprintln(w, "# TYPE wmxmld_owner_doc_bytes_total counter")
		for _, s := range owners {
			fmt.Fprintf(w, "wmxmld_owner_doc_bytes_total{owner=%q} %d\n", s.k, s.v.docBytes.Value())
		}
	}

	rt := obs.ReadRuntime()
	fams := []family{
		{"wmxmld_inflight_requests", "gauge", "Requests currently holding a worker slot.", inflight},
		{"wmxmld_doc_cache_entries", "gauge", "Documents currently cached.", cacheEntries},
		{"wmxmld_doc_cache_bytes", "gauge", "Total source-byte weight of cached documents.", cacheBytes},
		{"wmxmld_start_time_seconds", "gauge", "Unix time the server started.", m.startUnix},
		{"wmxmld_uptime_seconds", "gauge", "Seconds since the server started.", max(0, time.Now().Unix()-m.startUnix)},
		{"wmxmld_captures_total", "counter", "Anomaly capture bundles written to the --capture-dir ring.", m.captures.Value()},
		{"wmxmld_go_goroutines", "gauge", "Live goroutines.", rt.Goroutines},
		{"wmxmld_go_heap_live_bytes", "gauge", "Heap bytes live after the last GC.", rt.HeapLiveBytes},
		{"wmxmld_go_heap_goal_bytes", "gauge", "Heap size the garbage collector is pacing toward.", rt.HeapGoalBytes},
		{"wmxmld_go_gomemlimit_bytes", "gauge", "Effective GOMEMLIMIT (0 = no limit set).", rt.MemLimitBytes},
	}
	if rt.OpenFDs >= 0 {
		fams = append(fams, family{"wmxmld_go_open_fds", "gauge", "Open file descriptors (omitted where the platform cannot count them).", rt.OpenFDs})
	}
	writeFamilies(w, append(fams,
		family{"wmxmld_go_runtime_sample_time_seconds", "gauge", "Unix time the runtime health sample was taken.", rt.SampledUnix},
		family{"wmxmld_go_gc_cycles_total", "counter", "Completed GC cycles.", rt.GCCycles},
	))
	writeHistograms(w, "wmxmld_go_gc_pause_seconds", "Stop-the-world GC pause distribution over the process lifetime.", "", []keyed[string, obs.Histogram]{{"", rt.GCPause}})
	writeHistograms(w, "wmxmld_go_sched_latency_seconds", "Goroutine scheduling latency distribution over the process lifetime.", "", []keyed[string, obs.Histogram]{{"", rt.SchedLatency}})

	renderSLO(w, m.evalSLO(owners, time.Now().Unix()))
	fmt.Fprintf(w, "# HELP wmxmld_build_info Build metadata; the value is always 1.\n# TYPE wmxmld_build_info gauge\nwmxmld_build_info{version=%q} 1\n", m.version)
}

// writeFamilies writes single-sample families in order.
func writeFamilies(w io.Writer, fams []family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", f.name, f.help, f.name, f.typ, f.name, f.value)
	}
}

// snapshots reads each live histogram once.
func snapshots(hs []keyed[string, *histogram]) []keyed[string, obs.Histogram] {
	out := make([]keyed[string, obs.Histogram], len(hs))
	for i, s := range hs {
		out[i] = keyed[string, obs.Histogram]{s.k, s.v.snapshot()}
	}
	return out
}

// writeHistograms writes one histogram family, one series per entry,
// labelled label=<entry key> (unlabelled when label is empty).
func writeHistograms(w io.Writer, name, help, label string, series []keyed[string, obs.Histogram]) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, s := range series {
		pair, lbl := "", ""
		if label != "" {
			pair = fmt.Sprintf("%s=%q", label, s.k)
			lbl = "{" + pair + "}"
			pair += ","
		}
		for i, ub := range s.v.Bounds {
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, pair, formatLE(ub), s.v.Counts[i])
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, pair, s.v.Count)
		fmt.Fprintf(w, "%s_sum%s %g\n", name, lbl, s.v.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", name, lbl, s.v.Count)
	}
}

// renderSLO writes the wmxmld_slo_* gauges from one evaluation — the
// same computation /debug/slo serves, so the surfaces agree.
func renderSLO(w io.Writer, evals []SLOOwnerEval) {
	for _, f := range []struct {
		name, help string
		pick       func(SLOWindowEval) (detect, errs float64)
	}{
		{"wmxmld_slo_burn_rate", "Error-budget burn rate by owner, objective and window (1 = burning exactly at budget; owner=\"_total\" is the service aggregate).",
			func(e SLOWindowEval) (float64, float64) { return e.DetectBurn, e.ErrorBurn }},
		{"wmxmld_slo_budget_remaining", "Fraction of the window's error budget left (1 - burn rate; negative once overspent).",
			func(e SLOWindowEval) (float64, float64) { return e.DetectBudget, e.ErrorBudget }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name)
		for _, e := range evals {
			for _, win := range []struct {
				name string
				ev   SLOWindowEval
			}{{"5m", e.Fast}, {"1h", e.Slow}} {
				detect, errs := f.pick(win.ev)
				fmt.Fprintf(w, "%s{owner=%q,slo=\"detect_p99\",window=%q} %g\n", f.name, e.Owner, win.name, detect)
				fmt.Fprintf(w, "%s{owner=%q,slo=\"error_ratio\",window=%q} %g\n", f.name, e.Owner, win.name, errs)
			}
		}
	}
}

// formatLE renders a bucket bound in its shortest decimal form.
func formatLE(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
