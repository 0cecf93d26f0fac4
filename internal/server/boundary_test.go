package server

// The request boundary: every handler returns its failure to
// instrument(), which answers it once — the envelope before output, a
// cut connection after — and recovers panics as 500s that are logged,
// counted and traced like any other request.

import (
	"bytes"
	"encoding/json"
	"io"
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

// TestStoreReceiptCollision: the three routes that store an
// owner-derived receipt id share one duplicate rule. An identical retry
// is idempotent and answers with the same receipt; a stored receipt
// under that id whose records differ is a collision, refused with a 500
// (or, once streamed output has started, the error trailer).
func TestStoreReceiptCollision(t *testing.T) {
	fs := &faultStore{Store: registry.NewMemory()}
	_, ts := newTestServer(t, Options{Registry: fs})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 30, 5)
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
