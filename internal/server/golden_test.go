package server

// The /metrics and /debug/slo golden test: a fixed request script runs
// through one server, and the exposition's shape — every HELP and TYPE
// line, every series with its labels, and every counter value the
// script determines — plus the /debug/slo field names and owner order
// must match testdata/metrics.golden. A refactor of the telemetry code
// passes it without touching the golden file; run
//
//	WMXML_METRICS_GOLDEN_UPDATE=1 go test ./internal/server/ -run TestMetricsGolden
//
// to rewrite it after an intended change to the exposition.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// goldenVolatile names the counters whose values the script does not
// determine: the runtime's own GC count.
var goldenVolatile = map[string]bool{"wmxmld_go_gc_cycles_total": true}

// goldenPlatform names the families left out of the comparison because
// not every platform has them: the open-fd count exists only where the
// process can count its descriptors (Linux, asserted separately).
var goldenPlatform = map[string]bool{"wmxmld_go_open_fds": true}

func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, Options{Version: "golden", StreamChunkSize: 7})
	key := "key-acme"
	mustOK := func(what string, code int, body []byte) {
		t.Helper()
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, code, body)
		}
	}

	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 120, 3)
	code, marked, _ := doAs(t, key, "POST", ts.URL+"/v1/embed?owner=acme&doc=a.xml", orig)
	mustOK("embed", code, marked)
	for _, what := range []string{"detect (miss)", "detect (hit)"} {
		code, body, _ := doAs(t, key, "POST", ts.URL+"/v1/detect?owner=acme", marked)
		mustOK(what, code, body)
	}
	code, body, _ := doAs(t, key, "POST", ts.URL+"/v1/detect?owner=acme&mode=blind", marked)
	mustOK("blind detect", code, body)

	code, streamed, trailer, err := streamEmbed(t, ts.URL, "acme", pubsXML(t, 60, 4))
	if err != nil {
		t.Fatal(err)
	}
	mustOK("stream embed", code, streamed)
	code, body, _ = doAs(t, key, "POST", ts.URL+"/v1/detect?owner=acme&mode=stream&receipt="+trailer.Get("X-Wmxml-Receipt"), streamed)
	mustOK("stream detect", code, body)

	code, body, _ = doAs(t, key, "POST", ts.URL+"/v1/verify?owner=acme", marked)
	mustOK("verify", code, body)
	code, fpCopy, _ := doAs(t, key, "POST", ts.URL+"/v1/fingerprint?owner=acme&recipient=r1", orig)
	mustOK("fingerprint", code, fpCopy)
	code, body, _ = doAs(t, key, "POST", ts.URL+"/v1/trace?owner=acme", fpCopy)
	mustOK("trace", code, body)

	pv := compilePlan(t, ts.URL, "acme", pubsXML(t, 80, 9))
	deliverCopy(t, ts.URL, "acme", "r2", "&digest="+pv.Digest, nil)
	deliverCopy(t, ts.URL, "acme", "r3", "&digest="+pv.Digest, nil)

	if code, body, _ := doAs(t, key, "POST", ts.URL+"/v1/detect?owner=ghost", marked); code != http.StatusNotFound {
		t.Fatalf("unknown owner: %d %s", code, body)
	}
	if code, body, _ := do(t, "POST", ts.URL+"/v1/detect?owner=acme", marked); code != http.StatusUnauthorized {
		t.Fatalf("no credentials: %d %s", code, body)
	}

	code, prom, _ := do(t, "GET", ts.URL+"/metrics", nil)
	mustOK("/metrics", code, prom)
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	mustOK("/debug/slo", rec.Code, rec.Body.Bytes())
	// The gauges the script determines: nothing in flight at the scrape,
	// and the document cache's size as the LRU itself reports it.
	_, _, _, entries := s.CacheStats()
	for _, want := range []string{
		"wmxmld_inflight_requests 0",
		fmt.Sprintf("wmxmld_doc_cache_entries %d", entries),
		fmt.Sprintf("wmxmld_doc_cache_bytes %d", s.cache.Weight()),
	} {
		if !strings.Contains(string(prom), "\n"+want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if runtime.GOOS == "linux" && !strings.Contains(string(prom), "\n# TYPE wmxmld_go_open_fds gauge\nwmxmld_go_open_fds ") {
		t.Error("exposition lacks wmxmld_go_open_fds on linux")
	}

	got := goldenMetrics(t, string(prom)) + goldenSLO(t, rec.Body.Bytes())
	path := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("WMXML_METRICS_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}

// goldenMetrics reduces an exposition to its script-determined shape:
// comment lines verbatim, each sample's series, and the value only for
// counters outside goldenVolatile; goldenPlatform families are dropped.
func goldenMetrics(t *testing.T, text string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# --- /metrics\n")
	typ := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		family := line
		if strings.HasPrefix(line, "# ") {
			family = strings.Fields(line)[2]
		}
		if i := strings.IndexAny(family, " {"); i >= 0 {
			family = family[:i]
		}
		if goldenPlatform[family] {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, kind, _ := strings.Cut(rest, " ")
				typ[name] = kind
			}
			b.WriteString(line + "\n")
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		series, value := line[:i], line[i+1:]
		name, _, _ := strings.Cut(series, "{")
		if typ[name] == "counter" && !goldenVolatile[name] {
			fmt.Fprintf(&b, "%s %s\n", series, value)
		} else {
			b.WriteString(series + "\n")
		}
	}
	return b.String()
}

// goldenSLO reduces a /debug/slo page to its owner order and the
// sorted set of its field paths.
func goldenSLO(t *testing.T, page []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(page, &v); err != nil {
		t.Fatalf("/debug/slo not JSON: %v", err)
	}
	fields := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				fields[p] = true
				walk(p, c)
			}
		case []any:
			for _, c := range x {
				walk(prefix+"[]", c)
			}
		}
	}
	walk("", v)
	paths := make([]string, 0, len(fields))
	for p := range fields {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var owners []string
	for _, o := range v.(map[string]any)["owners"].([]any) {
		owners = append(owners, o.(map[string]any)["owner"].(string))
	}
	return "# --- /debug/slo\nowners " + strings.Join(owners, " ") + "\n" + strings.Join(paths, "\n") + "\n"
}
