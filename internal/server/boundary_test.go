package server

// The request boundary: every handler returns its failure to
// instrument(), which answers it once — the envelope before output, a
// cut connection after — and recovers panics as 500s that are logged,
// counted and traced like any other request.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wmxml/internal/obs"
	"wmxml/internal/registry"
)

// faultStore wraps a registry.Store with faults set on demand: the
// method named by panicIn panics, and GetReceipt hands back altered
// records while alter is set.
type faultStore struct {
	registry.Store
	panicIn atomic.Value // string: the method to panic in, "" for none
	alter   atomic.Bool
}

func (f *faultStore) fault(method string) {
	if f.panicIn.Load() == method {
		panic("injected fault in " + method)
	}
}

func (f *faultStore) ListReceipts(owner string) ([]registry.Receipt, error) {
	f.fault("ListReceipts")
	return f.Store.ListReceipts(owner)
}

func (f *faultStore) AddReceipt(r registry.Receipt) error {
	f.fault("AddReceipt")
	return f.Store.AddReceipt(r)
}

func (f *faultStore) GetPlan(owner, digest string) (registry.PlanRecord, error) {
	f.fault("GetPlan")
	return f.Store.GetPlan(owner, digest)
}

func (f *faultStore) GetReceipt(owner, id string) (registry.Receipt, error) {
	rec, err := f.Store.GetReceipt(owner, id)
	if err == nil && f.alter.Load() {
		rec.Records = rec.Records[:len(rec.Records)-1]
	}
	return rec, err
}

// scrapeHas reports whether /metrics carries the exact sample line.
func scrapeHas(t *testing.T, base, line string) bool {
	t.Helper()
	_, body, _ := do(t, "GET", base+"/metrics", nil)
	for _, l := range strings.Split(string(body), "\n") {
		if l == line {
			return true
		}
	}
	return false
}

// streamEmbed posts doc to the streaming embed route and returns the
// status, the body, the trailers and any transport error.
func streamEmbed(t *testing.T, base, owner string, doc []byte) (int, []byte, http.Header, error) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/embed?mode=stream&owner="+owner, bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-"+owner)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Trailer, err
}

// TestPanicBoundary: a panic anywhere below instrument() is one failed
// request — a 500 envelope before output, a cut connection after — and
// is still access-logged, counted and traced. The server keeps serving,
// and the worker slot the request held is released.
func TestPanicBoundary(t *testing.T) {
	logBuf := &syncBuffer{}
	fs := &faultStore{Store: registry.NewMemory()}
	s, ts := newTestServer(t, Options{Registry: fs, Logger: obs.NewLogger(logBuf, obs.LogOptions{Level: "info"})})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", pubsXML(t, 120, 1))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}

	t.Run("before output", func(t *testing.T) {
		fs.panicIn.Store("ListReceipts")
		code, body, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
		fs.panicIn.Store("")
		if code != http.StatusInternalServerError {
			t.Fatalf("detect over a panicking store: %d %s", code, body)
		}
		var env map[string]string
		if err := json.Unmarshal(body, &env); err != nil || len(env) != 2 || env["error"] != "internal error" ||
			!regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(env["request_id"]) {
			t.Fatalf("500 body is not the {error, request_id} envelope: %s (%v)", body, err)
		}
		reqID := hdr.Get("X-Request-Id")
		if env["request_id"] != reqID {
			t.Fatalf("envelope request_id %q != header %q", env["request_id"], reqID)
		}
		if !scrapeHas(t, ts.URL, `wmxmld_requests_total{route="/v1/detect",code="500"} 1`) {
			t.Error("the 500 is not counted in wmxmld_requests_total")
		}
		var traced bool
		for _, c := range s.TraceRing().Recent() {
			traced = traced || (c.RequestID == reqID && c.Status == http.StatusInternalServerError)
		}
		if !traced {
			t.Error("the 500 is not in the trace ring")
		}
		var access, failed int
		for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line not JSON: %v: %q", err, line)
			}
			if rec["request_id"] != reqID {
				continue
			}
			switch rec["msg"] {
			case "request":
				if rec["status"] == float64(500) {
					access++
				}
			case "request failed":
				stack, _ := rec["stack"].(string)
				if strings.Contains(rec["error"].(string), "injected fault in ListReceipts") && strings.Contains(stack, "faultStore") {
					failed++
				}
			}
		}
		if access != 1 || failed != 1 {
			t.Errorf("log has %d access records with status 500 and %d error records with the panic and its stack, want 1 and 1:\n%s", access, failed, logBuf.String())
		}
		if det := detectAs(t, "key-acme", ts.URL+"/v1/detect?owner=acme", marked); !det.Detected {
			t.Error("server stopped serving detects after the panic")
		}
	})

	t.Run("worker slot", func(t *testing.T) {
		fs := &faultStore{Store: registry.NewMemory()}
		_, ts := newTestServer(t, Options{Registry: fs, Workers: 1, QueueTimeout: 300 * time.Millisecond})
		registerOwner(t, ts.URL, "acme")
		doc := pubsXML(t, 20, 2)
		fs.panicIn.Store("GetPlan")
		req, err := http.NewRequest("POST", ts.URL+"/v1/deliver?owner=acme&recipient=r1", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer key-acme")
		resp, err := http.DefaultClient.Do(req)
		fs.panicIn.Store("")
		if err != nil {
			t.Errorf("deliver body path over a panicking store: %v", err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("deliver body path over a panicking store: %d", resp.StatusCode)
		}
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/verify?owner=acme", doc); code != http.StatusOK {
			t.Fatalf("verify after the panic: %d %s (the panicking request kept its worker slot)", code, body)
		}
	})

	t.Run("after output", func(t *testing.T) {
		fs.panicIn.Store("AddReceipt")
		code, _, trailer, err := streamEmbed(t, ts.URL, "acme", pubsXML(t, 40, 2))
		fs.panicIn.Store("")
		if err == nil && trailer.Get("X-Wmxml-Receipt") != "" {
			t.Fatalf("streamed embed over a panicking store completed: %d, receipt %q", code, trailer.Get("X-Wmxml-Receipt"))
		}
		if !scrapeHas(t, ts.URL, `wmxmld_requests_total{route="/v1/embed",code="500"} 1`) {
			t.Error("the cut stream is not counted as a 500")
		}
		if code, _, _, err := streamEmbed(t, ts.URL, "acme", pubsXML(t, 40, 3)); err != nil || code != http.StatusOK {
			t.Fatalf("streamed embed after the panic: %d %v", code, err)
		}
	})
}

// TestStoreReceiptCollision: the routes that store an owner-derived
// receipt id share one duplicate rule. An identical retry is idempotent
// and answers with the same receipt; a stored receipt under that id
// whose records differ is a collision, refused with a 500 (or, once a
// streamed embed's output has started, the error trailer). Both
// delivery shapes record before they splice, so theirs is a 500.
func TestStoreReceiptCollision(t *testing.T) {
	fs := &faultStore{Store: registry.NewMemory()}
	_, ts := newTestServer(t, Options{Registry: fs})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 30, 5)
	pv := compilePlan(t, ts.URL, "acme", doc) // doc is already canonical
	for _, tc := range []struct {
		name string
		// post runs the route and returns the status, the receipt id and
		// the stream error trailer.
		post func() (int, string, string)
	}{
		{"embed", func() (int, string, string) {
			code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", doc)
			return code, hdr.Get("X-Wmxml-Receipt"), ""
		}},
		{"fingerprint", func() (int, string, string) {
			code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/fingerprint?owner=acme&recipient=r1", doc)
			return code, hdr.Get("X-Wmxml-Receipt"), ""
		}},
		{"stream embed", func() (int, string, string) {
			code, _, trailer, err := streamEmbed(t, ts.URL, "acme", doc)
			if err != nil {
				t.Fatal(err)
			}
			return code, trailer.Get("X-Wmxml-Receipt"), trailer.Get("X-Wmxml-Stream-Error")
		}},
		{"deliver", func() (int, string, string) {
			code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/deliver?owner=acme&recipient=d1&digest="+pv.Digest, nil)
			return code, hdr.Get("X-Wmxml-Receipt"), ""
		}},
		{"deliver stream", func() (int, string, string) {
			code, _, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/deliver?owner=acme&recipient=d2&mode=stream&digest="+pv.Digest, doc)
			return code, hdr.Get("X-Wmxml-Receipt"), ""
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, first, serr := tc.post()
			if code != http.StatusOK || first == "" || serr != "" {
				t.Fatalf("first: %d, receipt %q, stream error %q", code, first, serr)
			}
			code, again, serr := tc.post()
			if code != http.StatusOK || again != first || serr != "" {
				t.Fatalf("identical retry: %d, receipt %q (first %q), stream error %q", code, again, first, serr)
			}
			fs.alter.Store(true)
			code, got, serr := tc.post()
			fs.alter.Store(false)
			if tc.name == "stream embed" {
				if code != http.StatusOK || got != "" || !strings.Contains(serr, "receipt id collision") {
					t.Fatalf("collision: %d, receipt %q, stream error %q", code, got, serr)
				}
			} else if code != http.StatusInternalServerError || got != "" {
				t.Fatalf("collision: %d, receipt %q", code, got)
			}
		})
	}
}

// TestZeroCarrierCopies: a document with no carriers (<db/> under the
// pubs preset) is still a copy, and every route that hands one out
// answers it alike: 200, the same X-Wmxml-* fields with Carriers 0, and
// neither a receipt nor an error, as a header or a trailer. No receipt
// is stored, since there is no query set to safeguard, and nothing
// counts as a 500.
func TestZeroCarrierCopies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	doc := []byte("<db/>")
	pv := compilePlan(t, ts.URL, "acme", doc)
	// With no mark sites, any recipient's copy is the canonical document.
	canonical, _ := deliverCopy(t, ts.URL, "acme", "z0", "&digest="+pv.Digest, nil)
	for _, tc := range []struct {
		name, route, recipient string
		body                   []byte
	}{
		{"embed", "/v1/embed?owner=acme", "", doc},
		{"fingerprint", "/v1/fingerprint?owner=acme&recipient=z1", "z1", doc},
		{"stream embed", "/v1/embed?owner=acme&mode=stream", "", doc},
		{"deliver body", "/v1/deliver?owner=acme&recipient=z2", "z2", doc},
		{"deliver digest", "/v1/deliver?owner=acme&recipient=z3&digest=" + pv.Digest, "z3", nil},
		{"deliver stream", "/v1/deliver?owner=acme&recipient=z4&mode=stream&digest=" + pv.Digest, "z4", canonical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", ts.URL+tc.route, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer key-acme")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body) // trailers arrive after the body
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%d %s (%v)", resp.StatusCode, body, err)
			}
			field := func(k string) string { return resp.Header.Get(k) + resp.Trailer.Get(k) }
			if field("X-Wmxml-Carriers") != "0" || field("X-Wmxml-Values-Written") != "0" || field("X-Wmxml-Bandwidth-Units") == "" {
				t.Errorf("carriers %q, values written %q, bandwidth units %q; want 0, 0 and a count",
					field("X-Wmxml-Carriers"), field("X-Wmxml-Values-Written"), field("X-Wmxml-Bandwidth-Units"))
			}
			if field("X-Wmxml-Recipient") != tc.recipient {
				t.Errorf("recipient %q, want %q", field("X-Wmxml-Recipient"), tc.recipient)
			}
			if id, serr := field("X-Wmxml-Receipt"), field("X-Wmxml-Stream-Error"); id != "" || serr != "" {
				t.Errorf("receipt %q, stream error %q; want neither", id, serr)
			}
		})
	}
	_, list, _ := doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/receipts", nil)
	var receipts struct {
		Receipts []json.RawMessage `json:"receipts"`
	}
	if err := json.Unmarshal(list, &receipts); err != nil || len(receipts.Receipts) != 0 {
		t.Errorf("receipts stored for zero-carrier copies: %s (%v)", list, err)
	}
	if _, prom, _ := do(t, "GET", ts.URL+"/metrics", nil); strings.Contains(string(prom), `code="500"`) {
		t.Error("a zero-carrier copy counted as a 500")
	}
}

// TestAbandonedUploadIsClientError: a client that declares a body, sends
// part of it and closes the socket gets a 499, not a 500. The request is
// counted under its route with code 499, and the owner's error budget is
// untouched: the server did not fail.
func TestAbandonedUploadIsClientError(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	routes := []string{"/v1/detect", "/v1/embed"}
	for _, route := range routes {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s?owner=acme HTTP/1.1\r\nHost: wmxml\r\nAuthorization: Bearer key-acme\r\n"+
			"Content-Type: application/xml\r\nContent-Length: 100000\r\n\r\n<db><book>ab", route)
		conn.Close()
	}
	var scrape string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, body, _ := do(t, "GET", ts.URL+"/metrics", nil)
		scrape = string(body)
		counted := 0
		for _, route := range routes {
			if strings.Contains(scrape, fmt.Sprintf("wmxmld_requests_total{route=%q,code=", route)) {
				counted++
			}
		}
		if counted == len(routes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned uploads not counted within 10s:\n%s", scrape)
		}
	}
	for _, route := range routes {
		if !strings.Contains(scrape, fmt.Sprintf("wmxmld_requests_total{route=%q,code=\"499\"} 1\n", route)) {
			t.Errorf("%s: abandoned upload not counted as one 499", route)
		}
		if strings.Contains(scrape, fmt.Sprintf("wmxmld_requests_total{route=%q,code=\"500\"}", route)) {
			t.Errorf("%s: abandoned upload counted as a 500", route)
		}
	}
	var burns int
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, "wmxmld_slo_burn_rate{") || !strings.Contains(line, `slo="error_ratio"`) {
			continue
		}
		burns++
		if !strings.HasSuffix(line, "} 0") {
			t.Errorf("abandoned uploads burn the error budget: %s", line)
		}
	}
	if burns == 0 {
		t.Fatalf("no error_ratio burn rate on /metrics:\n%s", scrape)
	}
}
