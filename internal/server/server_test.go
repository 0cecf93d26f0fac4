package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"wmxml/internal/config"
	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/registry"
	"wmxml/internal/xmltree"
)

// newTestServer builds a server over a fresh in-memory registry and
// returns it with its HTTP test harness.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = registry.NewMemory()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do fires an unauthenticated request (registration bootstrap,
// healthz/metrics, and the 401 assertions).
func do(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	return doAs(t, "", method, url, body)
}

// doAs fires a request carrying the owner key as the Bearer credential.
func doAs(t *testing.T, key, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// registerOwner bootstraps owner id with key "key-<id>".
func registerOwner(t *testing.T, base, id string) {
	t.Helper()
	owner := fmt.Sprintf(`{"id":%q,"key":"key-%s","mark":"(C) %s","dataset":"pubs","gamma":3}`, id, id, id)
	code, body, _ := do(t, "POST", base+"/v1/owners", []byte(owner))
	if code != http.StatusOK {
		t.Fatalf("register owner: %d %s", code, body)
	}
}

func pubsXML(t *testing.T, books int, seed int64) []byte {
	t.Helper()
	ds := datagen.Publications(datagen.PubConfig{Books: books, Seed: seed})
	return []byte(xmltree.SerializeIndentString(ds.Doc))
}

// TestServerEndToEnd is the acceptance flow: register, embed, then
// detect the marked document WITHOUT resending queries — the receipts
// resolve through the registry — and verify the repeat detection hits
// the parsed-document cache.
func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 150, 7)

	// Embed.
	code, marked, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=catalog.xml", orig)
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	receiptID := hdr.Get("X-Wmxml-Receipt")
	if receiptID == "" {
		t.Fatal("embed: no X-Wmxml-Receipt header")
	}
	if hdr.Get("X-Wmxml-Carriers") == "" || hdr.Get("X-Wmxml-Carriers") == "0" {
		t.Fatalf("embed: carriers = %q", hdr.Get("X-Wmxml-Carriers"))
	}
	if bytes.Equal(marked, orig) {
		t.Fatal("embed returned the document unchanged")
	}

	// Detect the marked document: no query set in the request.
	var det struct {
		Detected      bool    `json:"detected"`
		Mode          string  `json:"mode"`
		Receipt       string  `json:"receipt"`
		MatchFraction float64 `json:"match_fraction"`
		CacheHit      bool    `json:"cache_hit"`
		QueriesRun    int     `json:"queries_run"`
	}
	code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
	if code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if !det.Detected || det.Mode != "receipts" || det.Receipt != receiptID {
		t.Fatalf("detect verdict: %+v", det)
	}
	if det.CacheHit {
		t.Fatal("first detect reported a cache hit")
	}
	if det.QueriesRun == 0 {
		t.Fatal("detect ran no queries")
	}

	// Repeat detection of the same body: must be served from the
	// document cache (the acceptance criterion's counter assertion).
	code, body, _ = doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
	if code != http.StatusOK {
		t.Fatalf("repeat detect: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if !det.Detected || !det.CacheHit {
		t.Fatalf("repeat detect: %+v, want detected from cache", det)
	}
	hits, misses, _, size := s.CacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("cache stats after repeat detect: hits=%d misses=%d size=%d", hits, misses, size)
	}

	// The unmarked original must NOT detect.
	code, body, _ = doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", orig)
	if code != http.StatusOK {
		t.Fatalf("detect original: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if det.Detected {
		t.Fatalf("unmarked original detected: %+v", det)
	}

	// Blind mode works too (document kept the original schema).
	code, body, _ = doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme&mode=blind", marked)
	if code != http.StatusOK {
		t.Fatalf("blind detect: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if !det.Detected || det.Mode != "blind" {
		t.Fatalf("blind detect: %+v", det)
	}

	// Metrics reflect the cache counter.
	code, body, _ = do(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	// Cache traffic so far: marked(miss), marked(hit), orig(miss),
	// blind marked(hit) -> 2 hits, 2 misses.
	for _, want := range []string{
		"wmxmld_doc_cache_hits_total 2",
		"wmxmld_doc_cache_misses_total 2",
		"wmxmld_embeds_total 1",
		"wmxmld_detects_total 4",
		`wmxmld_requests_total{route="/v1/detect",code="200"} 4`,
		`wmxmld_request_seconds_count{route="/v1/detect"} 4`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerReceiptsEndpoint lists an owner's receipts with and without
// full query records.
func TestServerReceiptsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 60, 3)
	code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d1.xml", doc)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	wantID := hdr.Get("X-Wmxml-Receipt")

	var listing struct {
		Owner    string `json:"owner"`
		Receipts []struct {
			ID         string          `json:"id"`
			Doc        string          `json:"doc"`
			QueryCount int             `json:"query_count"`
			Records    json.RawMessage `json:"records"`
		} `json:"receipts"`
	}
	code, body, _ := doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/receipts", nil)
	if code != http.StatusOK {
		t.Fatalf("receipts: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Receipts) != 1 || listing.Receipts[0].ID != wantID || listing.Receipts[0].Doc != "d1.xml" {
		t.Fatalf("receipts listing: %s", body)
	}
	if listing.Receipts[0].QueryCount == 0 || listing.Receipts[0].Records != nil {
		t.Fatalf("metadata listing should elide records: %s", body)
	}
	code, body, _ = doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/receipts?full=1", nil)
	if code != http.StatusOK {
		t.Fatalf("receipts full: %d", code)
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Receipts[0].Records == nil {
		t.Fatalf("full listing lost records: %s", body)
	}

	// Re-embedding the identical body is idempotent: same receipt id,
	// no second registry entry.
	code, _, hdr = doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d1.xml", doc)
	if code != http.StatusOK || hdr.Get("X-Wmxml-Receipt") != wantID {
		t.Fatalf("re-embed: %d receipt=%q want %q", code, hdr.Get("X-Wmxml-Receipt"), wantID)
	}
	code, body, _ = doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/receipts", nil)
	if code != http.StatusOK {
		t.Fatal("receipts after re-embed")
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Receipts) != 1 {
		t.Fatalf("re-embed duplicated the receipt: %s", body)
	}
}

// TestServerKeyRotationNewReceipt: re-registering an owner with a new
// key and re-embedding the same bytes must store a fresh receipt (not
// silently collide with the stale one) and keep detection working.
func TestServerKeyRotationNewReceipt(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 80, 21)
	code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", doc)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	oldID := hdr.Get("X-Wmxml-Receipt")

	// Rotate the key: the re-registration itself must prove knowledge
	// of the key it replaces, then every request switches to the new
	// credential.
	rotated := `{"id":"acme","key":"rotated-key","mark":"(C) acme","dataset":"pubs","gamma":3}`
	if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/owners", []byte(rotated)); code != http.StatusOK {
		t.Fatalf("rotate: %d %s", code, body)
	}
	code, marked2, hdr := doAs(t, "rotated-key", "POST", ts.URL+"/v1/embed?owner=acme", doc)
	if code != http.StatusOK {
		t.Fatalf("re-embed after rotation: %d", code)
	}
	newID := hdr.Get("X-Wmxml-Receipt")
	if newID == oldID {
		t.Fatalf("rotated embed reused receipt id %q", oldID)
	}
	// The retired key no longer authenticates.
	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked2); code != http.StatusUnauthorized {
		t.Fatalf("detect with retired key: %d, want 401", code)
	}
	code, body, _ := doAs(t, "rotated-key", "GET", ts.URL+"/v1/owners/acme/receipts", nil)
	if code != http.StatusOK {
		t.Fatal("receipts after rotation")
	}
	if !strings.Contains(string(body), oldID) || !strings.Contains(string(body), newID) {
		t.Fatalf("registry lost a receipt across rotation: %s", body)
	}
	// The rotated-key marked copy detects through its new receipt.
	code, body, _ = doAs(t, "rotated-key", "POST", ts.URL+"/v1/detect?owner=acme", marked2)
	if code != http.StatusOK || !strings.Contains(string(body), `"detected": true`) {
		t.Fatalf("detect after rotation: %d %s", code, body)
	}
}

// pubsSpecOwner renders owner id (key "key-<id>") registered with the
// pubs document type as an explicit spec carrying targets.
func pubsSpecOwner(t *testing.T, id string, targets []string) []byte {
	t.Helper()
	ds, err := datagen.Preset("pubs", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := config.FromParts("pubs", ds.Schema, ds.Catalog, targets, nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"id":%q,"key":"key-%s","mark":"(C) %s","spec":%s,"gamma":3}`, id, id, id, spec))
}

// TestServerSpecChangeNewReceipt: receipt ids cover the owner's spec,
// not only its key, mark and gamma. Re-registering with a new spec and
// re-embedding the same bytes stores a fresh receipt (the stale id's
// records differ, so reusing it would be refused as a collision), and a
// retry under an unchanged record keeps its id. Delivery ids cover the
// plan too: a delivery from the plan compiled before the
// re-registration and one after the recompile each store the records of
// the copy they hand out.
func TestServerSpecChangeNewReceipt(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	ds, err := datagen.Preset("pubs", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	register := func(targets []string) {
		t.Helper()
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/owners", pubsSpecOwner(t, "acme", targets)); code != http.StatusOK {
			t.Fatalf("register: %d %s", code, body)
		}
	}
	embed := func(doc []byte) string {
		t.Helper()
		code, body, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", doc)
		if code != http.StatusOK {
			t.Fatalf("embed: %d %s", code, body)
		}
		return hdr.Get("X-Wmxml-Receipt")
	}
	// deliver delivers r1's copy from the stored plan and returns it
	// with the stored receipt's id and records.
	deliver := func(digest string) ([]byte, []core.QueryRecord, string) {
		t.Helper()
		out, hdr := deliverCopy(t, ts.URL, "acme", "r1", "&digest="+digest, nil)
		id := hdr.Get("X-Wmxml-Receipt")
		rec, err := s.reg.GetReceipt("acme", id)
		if err != nil {
			t.Fatalf("delivery receipt %s: %v", id, err)
		}
		return out, rec.Records, id
	}
	doc := pubsXML(t, 80, 21)

	register(ds.Targets)
	oldEmbed := embed(doc)
	if retry := embed(doc); retry != oldEmbed {
		t.Fatalf("retry under an unchanged owner changed the receipt id: %s -> %s", oldEmbed, retry)
	}
	digest := compilePlan(t, ts.URL, "acme", doc).Digest
	oldCopy, oldRecords, oldDeliver := deliver(digest)

	register([]string{"db/book/year"})
	if newEmbed := embed(doc); newEmbed == oldEmbed {
		t.Fatalf("re-embed after a spec change reused receipt id %s", oldEmbed)
	}
	// The stale plan still splices the old spec's copy, and its receipt
	// says so.
	staleCopy, staleRecords, _ := deliver(digest)
	if !bytes.Equal(staleCopy, oldCopy) || !slices.Equal(staleRecords, oldRecords) {
		t.Fatal("a delivery from the stale plan stored records that do not describe its copy")
	}
	compilePlan(t, ts.URL, "acme", doc)
	delivered, records, newDeliver := deliver(digest)
	if newDeliver == oldDeliver || slices.Equal(records, oldRecords) {
		t.Fatalf("redelivery after a spec change kept receipt %s (records changed: %v)", oldDeliver, !slices.Equal(records, oldRecords))
	}
	// A full fingerprint embed of r1 under the new spec safeguards the
	// records that describe the delivered copy.
	code, fpCopy, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/fingerprint?owner=acme&recipient=r1", doc)
	if code != http.StatusOK {
		t.Fatalf("fingerprint: %d %s", code, fpCopy)
	}
	fpRec, err := s.reg.GetReceipt("acme", hdr.Get("X-Wmxml-Receipt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(delivered, fpCopy) || !slices.Equal(records, fpRec.Records) {
		t.Fatal("delivery receipt does not describe the delivered copy")
	}
}

// TestServerVerify exercises the verification endpoint on valid and
// broken documents.
func TestServerVerify(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")

	var v struct {
		SchemaValid bool `json:"schema_valid"`
		OK          bool `json:"ok"`
	}
	code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/verify?owner=acme", pubsXML(t, 40, 1))
	if code != http.StatusOK {
		t.Fatalf("verify: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.SchemaValid || !v.OK {
		t.Fatalf("verify valid doc: %s", body)
	}
	code, body, _ = doAs(t, "key-acme", "POST", ts.URL+"/v1/verify?owner=acme", []byte(`<db><magazine/></db>`))
	if code != http.StatusOK {
		t.Fatalf("verify invalid: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.SchemaValid || v.OK {
		t.Fatalf("invalid doc verified: %s", body)
	}
}

// TestServerErrors covers the failure statuses: unknown owner, missing
// receipts, malformed bodies, oversized bodies, depth bombs.
func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 2048, MaxDepth: 20})
	registerOwner(t, ts.URL, "acme")

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		want   int
	}{
		{"embed unknown owner", "POST", "/v1/embed?owner=ghost", []byte("<db/>"), http.StatusNotFound},
		{"detect unknown owner", "POST", "/v1/detect?owner=ghost", []byte("<db/>"), http.StatusNotFound},
		{"missing owner param", "POST", "/v1/detect", []byte("<db/>"), http.StatusBadRequest},
		{"receipts unknown owner", "GET", "/v1/owners/ghost/receipts", nil, http.StatusNotFound},
		{"detect before any embed", "POST", "/v1/detect?owner=acme", []byte("<db></db>"), http.StatusConflict},
		{"unknown receipt", "POST", "/v1/detect?owner=acme&receipt=r-nope", []byte("<db></db>"), http.StatusNotFound},
		{"empty body", "POST", "/v1/embed?owner=acme", nil, http.StatusBadRequest},
		{"bad xml", "POST", "/v1/embed?owner=acme", []byte("<db><book>"), http.StatusBadRequest},
		{"bad owner json", "POST", "/v1/owners", []byte("{"), http.StatusBadRequest},
		{"owner missing key", "POST", "/v1/owners", []byte(`{"id":"x","mark":"m","dataset":"pubs"}`), http.StatusBadRequest},
		{"owner bad dataset", "POST", "/v1/owners", []byte(`{"id":"x","key":"k","mark":"m","dataset":"nope"}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		// All requests present acme's key so the expected error, not a
		// 401, is what comes back; the unauthenticated statuses have
		// their own test.
		code, body, _ := doAs(t, "key-acme", tc.method, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: code = %d want %d (%s)", tc.name, code, tc.want, body)
		}
	}

	// Oversized body: 413.
	big := make([]byte, 4096)
	for i := range big {
		big[i] = 'x'
	}
	code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code = %d want 413", code)
	}

	// Depth bomb: rejected by the MaxDepth parse guard.
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		sb.WriteString("<a>")
	}
	sb.WriteString("x")
	for i := 0; i < 30; i++ {
		sb.WriteString("</a>")
	}
	code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/verify?owner=acme", []byte(sb.String()))
	if code != http.StatusBadRequest {
		t.Errorf("depth bomb: code = %d (%s), want 400", code, body)
	}
}

// TestServerAuth: owner-scoped endpoints require the owner's key as a
// Bearer credential; re-registering an existing id requires the
// current key; AllowUnauthenticated opts out of all of it.
func TestServerAuth(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 120, 4)

	// Missing and wrong credentials are rejected on every owner-scoped
	// endpoint before any work runs.
	for _, key := range []string{"", "not-the-key"} {
		for _, ep := range []struct{ method, path string }{
			{"POST", "/v1/embed?owner=acme"},
			{"POST", "/v1/detect?owner=acme"},
			{"POST", "/v1/verify?owner=acme"},
			{"GET", "/v1/owners/acme/receipts"},
			{"GET", "/v1/owners/acme/receipts?full=1"},
		} {
			code, body, _ := doAs(t, key, ep.method, ts.URL+ep.path, doc)
			if code != http.StatusUnauthorized {
				t.Errorf("%s %s with key %q: code = %d want 401 (%s)", ep.method, ep.path, key, code, body)
			}
		}
	}

	// The auth scheme is case-insensitive (RFC 9110; proxies normalize
	// casing).
	req, err := http.NewRequest("POST", ts.URL+"/v1/verify?owner=acme", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "bearer key-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lowercase bearer scheme rejected: %d", resp.StatusCode)
	}

	// Hijacking an existing owner id without its key is refused; the
	// original registration stays intact.
	hijack := `{"id":"acme","key":"attacker","mark":"(C) EVE","dataset":"pubs"}`
	for _, key := range []string{"", "attacker"} {
		if code, body, _ := doAs(t, key, "POST", ts.URL+"/v1/owners", []byte(hijack)); code != http.StatusUnauthorized {
			t.Fatalf("re-register with key %q: code = %d want 401 (%s)", key, code, body)
		}
	}
	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", doc); code != http.StatusOK {
		t.Fatalf("original key stopped working after hijack attempt: %d", code)
	}

	// Trusted-network mode: everything works without credentials.
	_, open := newTestServer(t, Options{AllowUnauthenticated: true})
	registerOwner(t, open.URL, "acme")
	code, marked, _ := do(t, "POST", open.URL+"/v1/embed?owner=acme", doc)
	if code != http.StatusOK {
		t.Fatalf("unauthenticated embed with AllowUnauthenticated: %d", code)
	}
	if code, body, _ := do(t, "POST", open.URL+"/v1/detect?owner=acme", marked); code != http.StatusOK || !strings.Contains(string(body), `"detected": true`) {
		t.Fatalf("unauthenticated detect with AllowUnauthenticated: %d %s", code, body)
	}
}

// TestServerAdmission: with every worker slot occupied, a request is
// rejected with 503 once its queue wait expires.
func TestServerAdmission(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueTimeout: 20 * time.Millisecond})
	registerOwner(t, ts.URL, "acme")
	// Occupy the only slot directly.
	s.slots <- struct{}{}
	code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme&mode=blind", pubsXML(t, 10, 1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("admission: code = %d (%s), want 503", code, body)
	}
	<-s.slots
	if s.met.queueFull.Value() != 1 {
		t.Errorf("queueFull = %d, want 1", s.met.queueFull.Value())
	}
}

// TestServerHealthz reports owner count.
func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, body, _ := do(t, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if !strings.Contains(string(body), `"owners": 1`) {
		t.Errorf("healthz owners: %s", body)
	}
}

// TestServerFileRegistry runs the embed/detect flow over the JSONL
// store and confirms receipts survive a registry reopen.
func TestServerFileRegistry(t *testing.T) {
	path := t.TempDir() + "/reg.jsonl"
	reg, err := registry.OpenFile(path, registry.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Registry: reg})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 80, 11)
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", doc)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	reg.Close()

	// A second server over the reopened log detects with no re-embed.
	reg2, err := registry.OpenFile(path, registry.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	_, ts2 := newTestServer(t, Options{Registry: reg2})
	code, body, _ := doAs(t, "key-acme", "POST", ts2.URL+"/v1/detect?owner=acme", marked)
	if code != http.StatusOK {
		t.Fatalf("detect after reopen: %d %s", code, body)
	}
	if !strings.Contains(string(body), `"detected": true`) {
		t.Fatalf("detect after reopen: %s", body)
	}
}
