package server

// Observability tests: the Prometheus exposition lint, the request-id
// and traceparent contract, the /debug/traces ring, the error-body
// envelope, and the acceptance assertion that a detect trace's stage
// spans account for the request's wall time.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wmxml/internal/obs"
)

// lintPromText parses a Prometheus text exposition and fails on
// structural violations: samples without HELP/TYPE, duplicate series,
// non-monotone histogram buckets, or a +Inf bucket that disagrees with
// _count.
func lintPromText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{} // metric family -> TYPE
	seen := map[string]bool{}    // full series key (name + labelset)
	helped := map[string]bool{}
	type bucketKey struct{ series string } // histogram name + non-le labels
	buckets := map[string][]struct {
		le  float64
		cum float64
	}{}
	infs := map[string]float64{}
	counts := map[string]float64{}
	_ = bucketKey{}

	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name[{labels}] value
		name := line
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			name, labels = line[:i], line[i+1:j]
			line = line[:i] + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: want 'name value': %q", ln+1, line)
		}
		name = fields[0]
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, fields[1], err)
		}
		fam := family(name)
		if typed[fam] == "" {
			t.Fatalf("line %d: sample %s has no preceding # TYPE", ln+1, name)
		}
		if !helped[fam] {
			t.Fatalf("line %d: sample %s has no preceding # HELP", ln+1, name)
		}
		series := name + "{" + labels + "}"
		if seen[series] {
			t.Fatalf("line %d: duplicate series %s", ln+1, series)
		}
		seen[series] = true

		if typed[fam] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le := ""
			var rest []string
			for _, pair := range strings.Split(labels, ",") {
				if v, ok := strings.CutPrefix(pair, "le="); ok {
					le = strings.Trim(v, `"`)
				} else {
					rest = append(rest, pair)
				}
			}
			key := fam + "{" + strings.Join(rest, ",") + "}"
			if le == "+Inf" {
				infs[key] = val
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("line %d: bad le %q", ln+1, le)
				}
				buckets[key] = append(buckets[key], struct{ le, cum float64 }{f, val})
			}
		}
		if typed[fam] == "histogram" && strings.HasSuffix(name, "_count") {
			counts[fam+"{"+labels+"}"] = val
		}
	}
	if len(typed) == 0 {
		t.Fatal("exposition declared no metric families")
	}
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].cum < bs[i-1].cum {
				t.Fatalf("%s: cumulative bucket counts decrease at le=%v (%v -> %v)", key, bs[i].le, bs[i-1].cum, bs[i].cum)
			}
		}
		inf, ok := infs[key]
		if !ok {
			t.Fatalf("%s: no +Inf bucket", key)
		}
		if len(bs) > 0 && bs[len(bs)-1].cum > inf {
			t.Fatalf("%s: +Inf bucket %v below le=%v bucket %v", key, inf, bs[len(bs)-1].le, bs[len(bs)-1].cum)
		}
		cnt, ok := counts[key]
		if !ok || inf != cnt {
			t.Fatalf("%s: +Inf bucket %v != _count %v", key, inf, cnt)
		}
	}
}

func TestMetricsExpositionLint(t *testing.T) {
	_, ts := newTestServer(t, Options{Version: "lint-test"})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 120, 3)
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=a.xml", orig)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	for i := 0; i < 2; i++ { // miss then hit: exercises cache counters and stage spans
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked); code != http.StatusOK {
			t.Fatalf("detect: %d %s", code, body)
		}
	}
	do(t, "POST", ts.URL+"/v1/detect?owner=ghost", marked) // a 4xx row

	code, body, _ := do(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	lintPromText(t, text)
	for _, want := range []string{
		`wmxmld_stage_seconds_bucket{stage="decode"`,
		`wmxmld_stage_seconds_bucket{stage="parse"`,
		`wmxmld_owner_requests_total{owner="acme"}`,
		`wmxmld_owner_ops_total{owner="acme",op="detect"} 2`,
		`wmxmld_owner_cache_hits_total{owner="acme"} 1`,
		`wmxmld_build_info{version="lint-test"} 1`,
		"wmxmld_uptime_seconds",
		// Self-observing runtime families: the process gauges and
		// histograms read at scrape time, the SLO burn gauges (for the
		// service aggregate and the exercised owner), and the
		// watchdog's bundle counter (present even with the watchdog off).
		"wmxmld_go_goroutines",
		"wmxmld_go_heap_live_bytes",
		`wmxmld_go_gc_pause_seconds_bucket{le="+Inf"}`,
		`wmxmld_go_sched_latency_seconds_bucket{le="+Inf"}`,
		`wmxmld_slo_burn_rate{owner="_total",slo="detect_p99",window="5m"}`,
		`wmxmld_slo_burn_rate{owner="acme",slo="error_ratio",window="1h"}`,
		`wmxmld_slo_budget_remaining{owner="acme",slo="detect_p99",window="5m"}`,
		"wmxmld_captures_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestOwnerCardinalityCap(t *testing.T) {
	m := newMetrics("v", sloObjectives{}, nil)
	for i := 0; i < ownerCardinalityCap+10; i++ {
		m.finishRequest(&obs.Snapshot{Owner: fmt.Sprintf("owner-%03d", i), Op: "detect"}, "/v1/detect", 200, 0)
	}
	m.mu.Lock()
	n := len(m.owners)
	other := m.owners[ownerOverflow]
	m.mu.Unlock()
	if n != ownerCardinalityCap+1 {
		t.Fatalf("owner map grew to %d series, cap is %d + overflow", n, ownerCardinalityCap)
	}
	if other == nil || other.requests.Value() != 10 {
		t.Fatalf("overflow bucket requests = %v, want 10", other.requests.Value())
	}
	var buf bytes.Buffer
	m.render(&buf, 0, 0, 0)
	if !strings.Contains(buf.String(), `wmxmld_owner_requests_total{owner="other"} 10`) {
		t.Fatal("overflow series missing from the exposition")
	}
}

// TestRequestIDAndTraceparentEcho pins the header contract: a valid
// client traceparent donates its trace id as the request id and is
// echoed with a fresh span id; a request without one gets a fresh id.
func TestRequestIDAndTraceparentEcho(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("X-Request-Id = %q, want the traceparent trace id", got)
	}
	echo := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(echo, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || strings.Contains(echo, "00f067aa0ba902b7") {
		t.Fatalf("Traceparent echo = %q: want same trace id, fresh span id", echo)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get("X-Request-Id"); len(id) != 32 || id == "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("fresh X-Request-Id = %q", id)
	}
}

// TestErrorEnvelope pins the error-body contract: a stable JSON object
// carrying only the public message and the request id — no wrapped
// error chains leak to clients.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, body, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", []byte("<broken"))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed XML: %d %s", code, body)
	}
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body not JSON: %v: %s", err, body)
	}
	if env["error"] == "" || env["request_id"] == "" {
		t.Fatalf("envelope incomplete: %s", body)
	}
	if len(env) != 2 {
		t.Fatalf("envelope must carry exactly error and request_id: %s", body)
	}
	if env["request_id"] != hdr.Get("X-Request-Id") {
		t.Fatalf("body request_id %q != header %q", env["request_id"], hdr.Get("X-Request-Id"))
	}
}

// syncBuffer guards a bytes.Buffer: the access log writes from handler
// goroutines while the test reads after the fact.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogAndSpanAccounting is the acceptance loopback: with
// tracing on, a cold /v1/detect leaves a trace in the ring whose spans
// include parse, index, decode and vote, and whose summed stage time
// accounts for at least 80% of the measured request duration. It also
// asserts one structured access-log line per request.
func TestAccessLogAndSpanAccounting(t *testing.T) {
	logBuf := &syncBuffer{}
	s, ts := newTestServer(t, Options{
		Logger: obs.NewLogger(logBuf, obs.LogOptions{Level: "info"}),
	})
	registerOwner(t, ts.URL, "acme")
	// A document large enough that parse+index+decode dominate the
	// request over fixed HTTP/JSON overhead.
	orig := pubsXML(t, 900, 17)
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=big.xml", orig)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	code, body, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
	if code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, body)
	}
	reqID := hdr.Get("X-Request-Id")

	var snap *obs.Snapshot
	for _, c := range s.TraceRing().Recent() {
		if c.RequestID == reqID {
			snap = c
			break
		}
	}
	if snap == nil {
		t.Fatalf("detect trace %s not in the ring", reqID)
	}
	stages := map[string]time.Duration{}
	for _, st := range snap.StageDurations(nil) {
		stages[st.Name] = st.D
	}
	for _, want := range []string{"parse", "index", "decode", "vote"} {
		if stages[want] <= 0 {
			t.Fatalf("cold detect trace missing stage %q: %v", want, stages)
		}
	}
	var sumUS float64
	for _, sp := range snap.Spans {
		sumUS += sp.DurUS
	}
	if snap.DurationUS <= 0 {
		t.Fatalf("snapshot duration %v", snap.DurationUS)
	}
	ratio := sumUS / snap.DurationUS
	if ratio < 0.80 || ratio > 1.01 {
		t.Fatalf("stage spans cover %.0f%% of the request (spans %.0fµs, request %.0fµs) — want within 20%%.\nspans: %+v",
			ratio*100, sumUS, snap.DurationUS, snap.Spans)
	}
	t.Logf("stage spans cover %.1f%% of the %.0fµs request", ratio*100, snap.DurationUS)
	if snap.Op != "detect" || snap.Owner != "acme" || snap.Verdict != "detected" {
		t.Fatalf("snapshot labels: %+v", snap)
	}

	// One access-log line per finished request, JSON, carrying the id.
	var accessLines int
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v: %q", err, line)
		}
		if rec["msg"] != "request" {
			continue
		}
		accessLines++
		if rec["request_id"] == reqID {
			found = true
			if rec["route"] != "/v1/detect" || rec["status"] != float64(200) || rec["op"] != "detect" {
				t.Fatalf("access record: %v", rec)
			}
			bytesOut, ok := rec["bytes_out"].(float64)
			if !ok || bytesOut <= 0 {
				t.Fatalf("access record bytes_out = %v, want the JSON verdict's byte count", rec["bytes_out"])
			}
			if ua, ok := rec["user_agent"].(string); !ok || ua == "" {
				t.Fatalf("access record user_agent = %v, want net/http's default agent", rec["user_agent"])
			}
		}
	}
	if accessLines < 3 { // register + embed + detect
		t.Fatalf("got %d access-log lines, want one per request (>= 3)", accessLines)
	}
	if !found {
		t.Fatalf("no access-log line for request %s:\n%s", reqID, logBuf.String())
	}
}

// TestDebugTracesHandler serves the ring through the admin handler and
// checks the page shape plus slowest/recent retention.
func TestDebugTracesHandler(t *testing.T) {
	s, ts := newTestServer(t, Options{TraceRing: 4})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 100, 5)
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=a.xml", orig)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	for i := 0; i < 6; i++ {
		doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
	}

	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", rec.Code)
	}
	var page struct {
		RingSize int             `json:"ring_size"`
		Seen     uint64          `json:"seen"`
		Recent   []*obs.Snapshot `json:"recent"`
		Slowest  []*obs.Snapshot `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("page not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if page.RingSize != 4 || page.Seen != 8 { // register + embed + 6 detects
		t.Fatalf("page meta: ring_size=%d seen=%d", page.RingSize, page.Seen)
	}
	if len(page.Recent) != 4 {
		t.Fatalf("recent len %d, want ring size 4", len(page.Recent))
	}
	for i := 1; i < len(page.Slowest); i++ {
		if page.Slowest[i].DurationUS > page.Slowest[i-1].DurationUS {
			t.Fatal("slowest list not sorted by duration descending")
		}
	}
	for _, c := range page.Recent {
		if c.RequestID == "" || c.Route == "" || c.Status == 0 {
			t.Fatalf("snapshot incomplete: %+v", c)
		}
	}
	// The service mux must NOT expose the ring.
	codeSvc, _, _ := do(t, "GET", ts.URL+"/debug/traces", nil)
	if codeSvc == http.StatusOK {
		t.Fatal("/debug/traces reachable on the service mux")
	}
}

// TestTraceRingDisabled pins the -1 contract: request ids still flow,
// no spans are recorded, and /debug/traces answers 404 with the
// standard {error, request_id} envelope — "disabled" is distinguishable
// from "enabled but empty" (which serves a 200 page with ring_size set).
func TestTraceRingDisabled(t *testing.T) {
	s, ts := newTestServer(t, Options{TraceRing: -1})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 80, 5)
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=a.xml", orig)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
	if code != http.StatusOK {
		t.Fatalf("detect: %d", code)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Fatal("request ids must survive disabled tracing")
	}
	if s.TraceRing() != nil {
		t.Fatal("ring must be nil when TraceRing < 0")
	}
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled /debug/traces: %d, want 404", rec.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("404 body not JSON: %v: %s", err, rec.Body.Bytes())
	}
	if env["error"] == "" || len(env["request_id"]) != 32 {
		t.Fatalf("404 body must be the {error, request_id} envelope: %s", rec.Body.Bytes())
	}
}
