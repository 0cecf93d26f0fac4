package server

// Tests for the self-observing runtime: the SLO windows' math,
// per-owner overrides and the fold's allocation budget; the one owner
// map under the cardinality cap; the anomaly watchdog's rules, bundle
// ring, cooldown, eviction and shutdown; the /readyz
// liveness/readiness split; and a -race scrape loop proving the
// wmxmld_go_* / wmxmld_slo_* series never tear under concurrency.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wmxml/internal/obs"
	"wmxml/internal/registry"
)

// fold records one finished request the way instrument() does.
func fold(m *metrics, owner, op string, status int, d time.Duration) {
	m.finishRequest(&obs.Snapshot{Owner: owner, Op: op}, "/v1/"+op, status, d)
}

func TestSLOEngineBurnRates(t *testing.T) {
	defaults := sloObjectives{detectP99: time.Millisecond, errorRatio: 0.01}
	m := newMetrics("v", defaults)
	// 50 detects all over the 1ms objective: the bad fraction is 1.0
	// against a 1% budget — burn 100 in both windows.
	for i := 0; i < 50; i++ {
		fold(m, "acme", "detect", 200, 10*time.Millisecond)
	}
	// 50 more non-detect requests, 10 of them 5xx: error fraction 0.1
	// over the 100 total events, against a 1% budget — burn 10.
	for i := 0; i < 50; i++ {
		status := 200
		if i < 10 {
			status = 500
		}
		fold(m, "acme", "verify", status, time.Millisecond)
	}
	evals := m.evaluateSLO(time.Now().Unix())
	if len(evals) != 2 || evals[0].Owner != sloTotalOwner || evals[1].Owner != "acme" {
		t.Fatalf("evaluateAll owners: %+v", evals)
	}
	for _, ev := range evals {
		for _, w := range []SLOWindowEval{ev.Fast, ev.Slow} {
			if w.Events != 100 || w.Detects != 50 || w.DetectSlow != 50 || w.Errors != 10 {
				t.Fatalf("%s window sums: %+v", ev.Owner, w)
			}
			if w.DetectBurn != 100 {
				t.Fatalf("%s detect burn = %v, want 100", ev.Owner, w.DetectBurn)
			}
			if w.ErrorBurn != 10 {
				t.Fatalf("%s error burn = %v, want 10", ev.Owner, w.ErrorBurn)
			}
			if w.DetectBudget != 1-w.DetectBurn || w.ErrorBudget != 1-w.ErrorBurn {
				t.Fatalf("%s budget remaining: %+v", ev.Owner, w)
			}
		}
	}
	if evals[1].DetectP99MS != 1 {
		t.Fatalf("DetectP99MS = %v, want 1", evals[1].DetectP99MS)
	}
}

func TestSLOWindowRotation(t *testing.T) {
	w := newSLOWindow(sloFastBuckets, sloFastBucketSecs)
	now := int64(1_000_000)
	w.slot(now).events = 7
	if ev, _, _, _ := w.sums(now); ev != 7 {
		t.Fatalf("events = %d", ev)
	}
	// Past the window horizon the bucket's epoch is stale: sums must
	// drop it, and the next slot() touch resets it in place.
	later := now + sloFastBuckets*sloFastBucketSecs
	if ev, _, _, _ := w.sums(later); ev != 0 {
		t.Fatalf("stale bucket leaked into sums: %d", ev)
	}
	if b := w.slot(later); b.events != 0 {
		t.Fatalf("stale bucket not reset on reuse: %+v", b)
	}
}

func TestSLOOverrideResolution(t *testing.T) {
	defaults := sloObjectives{detectP99: 250 * time.Millisecond, errorRatio: 0.01}
	if got := sloObjectivesFrom(defaults, nil); got != defaults {
		t.Fatalf("nil override: %+v", got)
	}
	got := sloObjectivesFrom(defaults, &registry.SLOOverride{DetectP99MS: 5})
	if got.detectP99 != 5*time.Millisecond || got.errorRatio != 0.01 {
		t.Fatalf("partial override: %+v", got)
	}
	got = sloObjectivesFrom(defaults, &registry.SLOOverride{DetectP99MS: -1, ErrorRatio: -1})
	if got.detectP99 != 0 || got.errorRatio != 0 {
		t.Fatalf("negative fields must disable: %+v", got)
	}

	// A block starts with the defaults; the objectives its owner's
	// runtime hands it apply from then on, and a re-registration's
	// replace them.
	m := newMetrics("v", defaults)
	fold(m, "acme", "detect", 200, 10*time.Millisecond) // fast vs the 250ms default
	if ev := m.evaluateSLO(time.Now().Unix()); ev[1].Fast.DetectSlow != 0 {
		t.Fatalf("defaults: %+v", ev[1].Fast)
	}
	m.setObjectives("acme", &registry.SLOOverride{DetectP99MS: 1})
	fold(m, "acme", "detect", 200, 10*time.Millisecond) // slow vs 1ms
	if ev := m.evaluateSLO(time.Now().Unix()); ev[1].Fast.DetectSlow != 1 || ev[1].DetectP99MS != 1 {
		t.Fatalf("handed objectives: %+v", ev[1])
	}
	m.setObjectives("acme", &registry.SLOOverride{DetectP99MS: 60_000})
	fold(m, "acme", "detect", 200, 10*time.Millisecond) // now under the 1m objective
	if ev := m.evaluateSLO(time.Now().Unix()); ev[1].Fast.DetectSlow != 1 || ev[1].Fast.Detects != 3 {
		t.Fatalf("replaced objectives: %+v", ev[1].Fast)
	}
}

func TestSLOCardinalityCap(t *testing.T) {
	m := newMetrics("v", sloObjectives{errorRatio: 0.01})
	for i := 0; i < ownerCardinalityCap+10; i++ {
		fold(m, fmt.Sprintf("owner-%03d", i), "detect", 200, 0)
	}
	m.mu.Lock()
	n := len(m.owners)
	overflow := m.owners[ownerOverflow]
	m.mu.Unlock()
	if n != ownerCardinalityCap+1 {
		t.Fatalf("owner map grew to %d blocks, cap is %d + overflow", n, ownerCardinalityCap)
	}
	if overflow == nil {
		t.Fatal("no overflow block")
	}
	if ev, _, _, _ := overflow.slo.fast.sums(time.Now().Unix()); ev != 10 {
		t.Fatalf("overflow events = %d, want 10", ev)
	}
}

// TestOwnerFoldAgreesAtCap folds 16 new owners at once across the
// cardinality cap's boundary: the owners /metrics counts requests for
// are exactly the owners it reports SLO burn rates for, because both
// live in one block created once.
func TestOwnerFoldAgreesAtCap(t *testing.T) {
	labels := func(text, family string) []string {
		var out []string
		for _, line := range strings.Split(text, "\n") {
			rest, ok := strings.CutPrefix(line, family+`{owner="`)
			if owner, _, _ := strings.Cut(rest, `"`); ok && owner != sloTotalOwner && !slices.Contains(out, owner) {
				out = append(out, owner)
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		m := newMetrics("v", sloObjectives{errorRatio: 0.01})
		for i := 0; i < ownerCardinalityCap-8; i++ {
			fold(m, fmt.Sprintf("owner-%03d", i), "detect", 200, 0)
		}
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fold(m, fmt.Sprintf("new-%02d", i), "detect", 200, 0)
			}()
		}
		wg.Wait()
		var buf bytes.Buffer
		m.render(&buf, 0, 0, 0)
		counted := labels(buf.String(), "wmxmld_owner_requests_total")
		burning := labels(buf.String(), "wmxmld_slo_burn_rate")
		if len(counted) != ownerCardinalityCap+1 || !slices.Equal(counted, burning) {
			t.Fatalf("trial %d: owner_requests_total names %d owners %v, slo_burn_rate names %v", trial, len(counted), counted, burning)
		}
	}
}

// TestSLORecordNoAllocs pins the warm path: once a route's, its stages'
// and an owner's series exist, folding a finished request — the request
// counter, the latency and stage histograms, the owner counters and the
// owner's and the aggregate's SLO windows — allocates nothing, for a
// request of a few spans and for a multi-receipt sweep of many spans
// over a few stages.
func TestSLORecordNoAllocs(t *testing.T) {
	m := newMetrics("v", sloObjectives{detectP99: time.Millisecond, errorRatio: 0.01})
	short := &obs.Snapshot{Owner: "acme", Op: "detect", DocBytes: 4096, CacheHit: true, Spans: []obs.SpanInfo{
		{Name: "cache", DurUS: 3}, {Name: "decode", DurUS: 150}, {Name: "vote", DurUS: 20}, {Name: "decode", DurUS: 90},
	}}
	sweep := &obs.Snapshot{Owner: "acme", Op: "detect", DocBytes: 4096, Spans: []obs.SpanInfo{
		{Name: "registry", DurUS: 5}, {Name: "cache", DurUS: 3},
	}}
	for i := 0; i < 12; i++ { // one plan, decode and vote span per receipt
		sweep.Spans = append(sweep.Spans,
			obs.SpanInfo{Name: "plan_compile", DurUS: 40}, obs.SpanInfo{Name: "decode", DurUS: 150}, obs.SpanInfo{Name: "vote", DurUS: 20})
	}
	for _, snap := range []*obs.Snapshot{short, sweep} {
		m.finishRequest(snap, "/v1/detect", 200, 2*time.Millisecond)
		if n := testing.AllocsPerRun(1000, func() {
			m.finishRequest(snap, "/v1/detect", 200, 2*time.Millisecond)
		}); n != 0 {
			t.Fatalf("the fold of a %d-span request allocates %v per op, want 0", len(snap.Spans), n)
		}
	}
	// Spans of one stage sum into one observation per request.
	reqs := m.requests[reqKey{"/v1/detect", 200}].Value()
	if n := m.stages["decode"].count.Load(); n != reqs {
		t.Fatalf("decode stage observed %d times over %d requests", n, reqs)
	}
	if n := m.stages["plan_compile"].count.Load(); n != 1002 {
		t.Fatalf("plan_compile stage observed %d times over the sweep's 1002 requests", n)
	}
}

// replyWriter is a ResponseWriter reused across requests, so an
// allocation count through ServeHTTP is the server's alone.
type replyWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *replyWriter) Header() http.Header         { return w.h }
func (w *replyWriter) WriteHeader(code int)        { w.code = code }
func (w *replyWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *replyWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.body.Reset()
}

// TestWarmDetectAllocs pins the warm /v1/detect path: with the doc and
// plan caches hit, a request of a 1k-record body allocates a few dozen
// small objects (the request's context, trace and headers, one parse of
// the query string, the verdict), no copy of the body (the cache
// lookup indexes its map with the pooled bytes), no boxed access-log
// field, and no queue timer while a worker slot is free. Reading the
// body with io.ReadAll cost 1.2 MB per request.
func TestWarmDetectAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled body buffers")
	}
	s, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", pubsXML(t, 1000, 3))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	h := s.Handler()
	body := bytes.NewReader(marked)
	req := httptest.NewRequest("POST", "/v1/detect?owner=acme", body)
	req.Header.Set("Authorization", "Bearer key-acme")
	w := &replyWriter{h: http.Header{}}
	detect := func() {
		body.Reset(marked)
		w.reset()
		h.ServeHTTP(w, req)
	}
	detect() // fills the doc and plan caches
	if detect(); w.code != http.StatusOK || !bytes.Contains(w.body.Bytes(), []byte(`"cache_hit": true`)) {
		t.Fatalf("warm detect: %d %s", w.code, w.body.Bytes())
	}
	// 37 objects measured (37 over 6 runs), plus 25%.
	const maxObjects, runs = 46, 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, detect)
	runtime.ReadMemStats(&after)
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun's warm-up included
	t.Logf("warm detect of a %d-byte body: %.0f objects, %.0f bytes per request", len(marked), objects, bytesPerOp)
	if objects > maxObjects {
		t.Errorf("warm detect allocates %.0f objects per request, budget %d", objects, maxObjects)
	}
	if bytesPerOp > 64<<10 {
		t.Errorf("warm detect allocates %.0f bytes per request, budget 64 KiB", bytesPerOp)
	}
}

// newWatchdogServer builds a server whose watchdog writes into a fresh
// ring and never ticks during the test, which drives check itself.
func newWatchdogServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	opts.Registry = registry.NewMemory()
	opts.CaptureDir = t.TempDir()
	opts.WatchdogInterval = time.Hour
	opts.CaptureCPUProfile = -1 // keep the test fast; cpu.pprof is optional
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, opts.CaptureDir
}

// ruleBundle returns the rule.json of the bundle in dir that rule
// fired for owner, failing the test when there is none. The bundle's
// name ends in the rule, then the path-escaped owner if there is one.
func ruleBundle(t *testing.T, dir, rule, owner string) firedRule {
	t.Helper()
	suffix := "-" + rule
	if owner != "" {
		suffix += "-" + url.PathEscape(owner)
	}
	bundles := listBundles(dir)
	for _, name := range bundles {
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name, "rule.json"))
		if err != nil {
			t.Fatal(err)
		}
		var fr firedRule
		if err := json.Unmarshal(b, &fr); err != nil {
			t.Fatalf("%s/rule.json: %v %s", name, err, b)
		}
		if fr.Rule == rule && fr.Owner == owner {
			return fr
		}
	}
	t.Fatalf("bundles %v hold no %s capture for owner %q", bundles, rule, owner)
	return firedRule{}
}

func TestWatchdogCaptureBundle(t *testing.T) {
	s, dir := newWatchdogServer(t, Options{
		SLODetectP99:    time.Millisecond,
		TraceRing:       4,
		CaptureMax:      2,
		CaptureCooldown: time.Hour,
	})
	for i := 0; i < 20; i++ {
		fold(s.met, "acme", "detect", 200, 10*time.Millisecond)
	}
	s.ring.Add(&obs.Snapshot{RequestID: "r1", Route: "/v1/detect", Status: 200, DurationUS: 12000})
	d := s.dog

	d.check(time.Now())
	// The aggregate (owner _total) and acme breach in the same check:
	// one bundle each, told apart by the owner in the name.
	bundles := listBundles(dir)
	if len(bundles) != 2 {
		t.Fatalf("bundles after breach: %v", bundles)
	}
	for _, owner := range []string{sloTotalOwner, "acme"} {
		ruleBundle(t, dir, "slo-detect-p99", owner)
	}
	full := filepath.Join(dir, bundles[0])
	for _, f := range []string{"rule.json", "slo.json", "traces.json", "metrics.prom", "heap.pprof", "goroutine.pprof"} {
		fi, err := os.Stat(filepath.Join(full, f))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("bundle file %s: %v (size %d)", f, err, fi.Size())
		}
	}
	var fr firedRule
	b, _ := os.ReadFile(filepath.Join(full, "rule.json"))
	if err := json.Unmarshal(b, &fr); err != nil || fr.Rule != "slo-detect-p99" {
		t.Fatalf("rule.json: %v %s", err, b)
	}
	if n := s.met.captures.Value(); n != uint64(len(listBundles(dir))) {
		t.Fatalf("captures counter %d != bundles on disk %d", n, len(listBundles(dir)))
	}
	if strings.Contains(strings.Join(listBundles(dir), " "), ".cap-") {
		t.Fatal("tmp assembly dir leaked into the ring")
	}
	before := len(listBundles(dir))

	// Cooldown: the same rules must not refire within the hour.
	d.check(time.Now())
	if got := len(listBundles(dir)); got != before {
		t.Fatalf("cooldown violated: %d -> %d bundles", before, got)
	}

	// A different rule fires independently and the ring evicts oldest
	// past maxBundles.
	d.cfg.goroutineMax = 1
	d.check(time.Now())
	after := listBundles(dir)
	if len(after) != d.cfg.maxBundles {
		t.Fatalf("ring size %d, want %d (eviction)", len(after), d.cfg.maxBundles)
	}
	if !strings.Contains(after[len(after)-1], "goroutine-spike") {
		t.Fatalf("newest bundle %q should be the goroutine-spike capture", after[len(after)-1])
	}
}

// TestWatchdogErrorRatio fires slo-error-ratio: a quarter of the
// requests answered 5xx burns the 1% error budget 25× in both windows,
// above the event floor, for the service aggregate (and for acme).
func TestWatchdogErrorRatio(t *testing.T) {
	s, dir := newWatchdogServer(t, Options{SLOErrorRatio: 0.01})
	for i := 0; i < 20; i++ {
		status := 200
		if i%4 == 0 {
			status = 503
		}
		fold(s.met, "acme", "verify", status, time.Millisecond)
	}
	s.dog.check(time.Now())
	for _, owner := range []string{sloTotalOwner, "acme"} {
		fr := ruleBundle(t, dir, "slo-error-ratio", owner)
		if fr.Detail["fast_burn"] != 25.0 || fr.Detail["slow_burn"] != 25.0 || fr.Detail["fast_errors"] != 5.0 {
			t.Fatalf("%s rule.json detail: %v", owner, fr.Detail)
		}
	}
}

// TestWatchdogHeapNearLimit fires heap-near-limit by setting this
// process's memory limit just above its live heap: check reads runtime
// health itself, so it sees the new limit at once.
func TestWatchdogHeapNearLimit(t *testing.T) {
	s, dir := newWatchdogServer(t, Options{})
	// Two cycles: the first moves sync.Pool contents to their victim
	// caches, the second frees them, so the live heap read here is not
	// about to shrink under the limit.
	runtime.GC()
	runtime.GC()
	limit := obs.ReadRuntime().HeapLiveBytes * 102 / 100
	old := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(old)
	s.dog.check(time.Now())
	fr := ruleBundle(t, dir, "heap-near-limit", "")
	if fr.Detail["gomemlimit_bytes"] != float64(limit) {
		t.Fatalf("rule.json detail: %v, want gomemlimit_bytes %d", fr.Detail, limit)
	}
}

func TestWatchdogQuietWhenHealthy(t *testing.T) {
	s, dir := newWatchdogServer(t, Options{SLODetectP99: time.Second, SLOErrorRatio: 0.5})
	for i := 0; i < 100; i++ {
		fold(s.met, "acme", "detect", 200, time.Millisecond)
	}
	s.dog.check(time.Now())
	if got := listBundles(dir); len(got) != 0 {
		t.Fatalf("healthy traffic produced bundles: %v", got)
	}
}

// TestCloseConcurrent: Close is safe from several goroutines at once,
// as its doc promises — the watchdog's stop channel closes exactly once.
// A double close needs two Close calls to interleave, so the test makes
// many servers to give that interleaving a chance to happen.
func TestCloseConcurrent(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2000; i++ {
		s, err := New(Options{Registry: registry.NewMemory(), CaptureDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close()
			}()
		}
		wg.Wait()
	}
}

func TestDebugSLOHandler(t *testing.T) {
	s, ts := newTestServer(t, Options{SLODetectP99: time.Nanosecond}) // everything is slow
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 80, 3)
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=a.xml", orig)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	for i := 0; i < 3; i++ {
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked); code != http.StatusOK {
			t.Fatalf("detect: %d %s", code, body)
		}
	}
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slo: %d", rec.Code)
	}
	var page struct {
		Defaults struct {
			DetectP99MS float64 `json:"detect_p99_ms"`
			ErrorRatio  float64 `json:"error_ratio"`
		} `json:"defaults"`
		Owners []SLOOwnerEval `json:"owners"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("page not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if page.Defaults.ErrorRatio != 0.01 {
		t.Fatalf("defaults: %+v", page.Defaults)
	}
	var acme *SLOOwnerEval
	for i := range page.Owners {
		if page.Owners[i].Owner == "acme" {
			acme = &page.Owners[i]
		}
	}
	if acme == nil {
		t.Fatalf("no acme evaluation: %s", rec.Body.Bytes())
	}
	if acme.Fast.Detects != 3 || acme.Fast.DetectSlow != 3 || acme.Fast.DetectBurn != 100 {
		t.Fatalf("acme fast window: %+v", acme.Fast)
	}

	// /metrics renders the same evaluation.
	code, body, _ := do(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(body), `wmxmld_slo_burn_rate{owner="acme",slo="detect_p99",window="5m"} 100`) {
		t.Fatal("/metrics disagrees with /debug/slo about the acme burn rate")
	}
	// The service mux must NOT expose the SLO page.
	if codeSvc, _, _ := do(t, "GET", ts.URL+"/debug/slo", nil); codeSvc == http.StatusOK {
		t.Fatal("/debug/slo reachable on the service mux")
	}
}

func TestDebugCapturesDisabled(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/captures", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled /debug/captures: %d, want 404", rec.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env["error"] == "" || len(env["request_id"]) != 32 {
		t.Fatalf("404 body must be the {error, request_id} envelope: %s", rec.Body.Bytes())
	}
}

func TestDebugCapturesListing(t *testing.T) {
	dir := t.TempDir()
	name := capturePrefix + "20260808T120000.000000000-slo-detect-p99"
	if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name, "rule.json"), []byte(`{"rule":"slo-detect-p99"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	capturesHandler(dir).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/captures", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/captures: %d", rec.Code)
	}
	var page struct {
		Dir     string `json:"dir"`
		Bundles []struct {
			Name  string `json:"name"`
			Files []struct {
				Name  string `json:"name"`
				Bytes int64  `json:"bytes"`
			} `json:"files"`
		} `json:"bundles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("page not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if len(page.Bundles) != 1 || page.Bundles[0].Name != name {
		t.Fatalf("bundles: %+v", page.Bundles)
	}
	if len(page.Bundles[0].Files) != 1 || page.Bundles[0].Files[0].Name != "rule.json" || page.Bundles[0].Files[0].Bytes == 0 {
		t.Fatalf("files: %+v", page.Bundles[0].Files)
	}
}

// failingStore wraps a registry store with a GetOwner that always
// errors — the readiness probe's unhealthy-backend case.
type failingStore struct {
	registry.Store
}

func (failingStore) GetOwner(string) (registry.Owner, error) {
	return registry.Owner{}, fmt.Errorf("disk on fire")
}

func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	code, body, _ := do(t, "GET", ts.URL+"/readyz", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ready"`)) {
		t.Fatalf("/readyz: %d %s", code, body)
	}
	s.SetDraining(true)
	code, body, hdr := do(t, "GET", ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: %d %s", code, body)
	}
	var reason struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &reason); err != nil || reason.Status != "draining" || reason.Reason == "" {
		t.Fatalf("draining body: %v %s", err, body)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Fatal("readyz is instrumented: it must carry a request id")
	}
	// Liveness is unaffected: a draining process is still alive.
	if code, _, _ := do(t, "GET", ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d", code)
	}
	s.SetDraining(false)
	if code, _, _ := do(t, "GET", ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after undrain: %d", code)
	}
}

func TestReadyzRegistryFailure(t *testing.T) {
	_, ts := newTestServer(t, Options{Registry: failingStore{registry.NewMemory()}})
	code, body, _ := do(t, "GET", ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with failing registry: %d %s", code, body)
	}
	if bytes.Contains(body, []byte("disk on fire")) {
		t.Fatalf("backend error detail leaked to the unauthenticated probe: %s", body)
	}
}

// TestMetricsScrapeRace scrapes /metrics in a loop while requests
// flow. Run under -race this proves the snapshot-and-render path is
// data-race-free; the lint on every scrape proves no torn histograms
// (le="+Inf" == _count) ever surface, and every scrape carries the
// runtime health series it reads itself.
func TestMetricsScrapeRace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		code, body, _ := do(t, "GET", ts.URL+"/metrics", nil)
		if code != http.StatusOK {
			t.Fatalf("scrape %d: %d", i, code)
		}
		lintPromText(t, string(body))
		for _, want := range []string{"\nwmxmld_go_goroutines ", "\nwmxmld_go_heap_live_bytes ", "\nwmxmld_go_gc_pause_seconds_count "} {
			if !strings.Contains(string(body), want) {
				t.Fatalf("scrape %d lacks %q", i, strings.TrimSpace(want))
			}
		}
	}
	close(stop)
	wg.Wait()
}
