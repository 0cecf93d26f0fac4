package server

// Streaming-endpoint coverage: byte-identity with the buffered embed,
// trailer-delivered receipts, doc-cache bypass, stream metrics, and the
// client-disconnect leak check.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestStreamEmbedMatchesBuffered: mode=stream must return exactly the
// bytes of the buffered embed, deliver the receipt id in trailers, and
// store a working receipt.
func TestStreamEmbedMatchesBuffered(t *testing.T) {
	_, ts := newTestServer(t, Options{StreamChunkSize: 7})
	registerOwner(t, ts.URL, "st")
	doc := pubsXML(t, 60, 9)

	// Buffered reference.
	code, wantBody, _ := doAs(t, "key-st", "POST", ts.URL+"/v1/embed?owner=st", doc)
	if code != http.StatusOK {
		t.Fatalf("buffered embed: %d %s", code, wantBody)
	}

	// Streamed.
	req, err := http.NewRequest("POST", ts.URL+"/v1/embed?owner=st&mode=stream&doc=huge.xml", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-st")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	gotBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream embed: %d %s", resp.StatusCode, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("streamed embed output differs from buffered (stream %d bytes, buffered %d)", len(gotBody), len(wantBody))
	}
	// Trailers arrive after the body is drained.
	if e := resp.Trailer.Get("X-Wmxml-Stream-Error"); e != "" {
		t.Fatalf("stream error trailer: %s", e)
	}
	receiptID := resp.Trailer.Get("X-Wmxml-Receipt")
	if !strings.HasPrefix(receiptID, "s-") {
		t.Fatalf("receipt trailer %q", receiptID)
	}
	if resp.Trailer.Get("X-Wmxml-Carriers") == "" || resp.Trailer.Get("X-Wmxml-Stream-Chunks") == "" {
		t.Fatalf("missing stat trailers: %v", resp.Trailer)
	}

	// The stored receipt drives both buffered and streamed detection.
	code, verdict, _ := doAs(t, "key-st", "POST", ts.URL+"/v1/detect?owner=st&receipt="+receiptID, gotBody)
	if code != http.StatusOK || !strings.Contains(string(verdict), `"detected": true`) {
		t.Fatalf("buffered detect via streamed receipt: %d %s", code, verdict)
	}
	code, verdict, _ = doAs(t, "key-st", "POST", ts.URL+"/v1/detect?owner=st&mode=stream&receipt="+receiptID, gotBody)
	if code != http.StatusOK {
		t.Fatalf("stream detect: %d %s", code, verdict)
	}
	var v struct {
		Detected bool   `json:"detected"`
		Streamed bool   `json:"streamed"`
		Chunks   int    `json:"chunks"`
		Mode     string `json:"mode"`
		Suspect  string `json:"suspect_sha256"`
	}
	if err := json.Unmarshal(verdict, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Detected || !v.Streamed || v.Chunks == 0 || v.Mode != "stream" || len(v.Suspect) != 64 {
		t.Fatalf("stream verdict: %+v (%s)", v, verdict)
	}

	// Blind streamed detection.
	code, verdict, _ = doAs(t, "key-st", "POST", ts.URL+"/v1/detect?owner=st&mode=stream-blind", gotBody)
	if code != http.StatusOK || !strings.Contains(string(verdict), `"detected": true`) {
		t.Fatalf("stream-blind detect: %d %s", code, verdict)
	}
}

// TestStreamDetectBypassesCache: streamed detection must not touch the
// suspect-document cache.
func TestStreamDetectBypassesCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "cb")
	doc := pubsXML(t, 30, 4)
	code, marked, _ := doAs(t, "key-cb", "POST", ts.URL+"/v1/embed?owner=cb", doc)
	if code != http.StatusOK {
		t.Fatalf("embed: %d", code)
	}
	h0, m0, _, size0 := s.CacheStats()
	code, _, _ = doAs(t, "key-cb", "POST", ts.URL+"/v1/detect?owner=cb&mode=stream-blind", marked)
	if code != http.StatusOK {
		t.Fatalf("stream-blind: %d", code)
	}
	code, _, _ = doAs(t, "key-cb", "POST", ts.URL+"/v1/detect?owner=cb&mode=stream", marked)
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	h1, m1, _, size1 := s.CacheStats()
	if h1 != h0 || m1 != m0 || size1 != size0 {
		t.Fatalf("streamed detects touched the doc cache: hits %d->%d misses %d->%d size %d->%d", h0, h1, m0, m1, size0, size1)
	}
}

// TestStreamMetricsExposed: the wmxmld_stream_* series appear after
// streamed operations.
func TestStreamMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Options{StreamChunkSize: 5})
	registerOwner(t, ts.URL, "met")
	doc := pubsXML(t, 25, 2)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/embed?owner=met&mode=stream", bytes.NewReader(doc))
	req.Header.Set("Authorization", "Bearer key-met")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream embed: %d", resp.StatusCode)
	}
	code, _, _ := doAs(t, "key-met", "POST", ts.URL+"/v1/detect?owner=met&mode=stream-blind", body)
	if code != http.StatusOK {
		t.Fatalf("stream detect: %d", code)
	}
	_, metrics, _ := do(t, "GET", ts.URL+"/metrics", nil)
	for _, want := range []string{
		"wmxmld_stream_embeds_total 1",
		"wmxmld_stream_detects_total 1",
		"wmxmld_stream_chunks_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStreamErrorsBeforeOutput: malformed bodies and missing receipts
// fail with proper statuses (output not yet started).
func TestStreamErrorsBeforeOutput(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "er")

	code, body, _ := doAs(t, "key-er", "POST", ts.URL+"/v1/embed?owner=er&mode=stream", []byte("this is not xml"))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed stream embed: %d %s", code, body)
	}
	code, body, _ = doAs(t, "key-er", "POST", ts.URL+"/v1/detect?owner=er&mode=stream", pubsXML(t, 5, 1))
	if code != http.StatusConflict {
		t.Fatalf("stream detect without receipts: %d %s", code, body)
	}
	code, body, _ = do(t, "POST", ts.URL+"/v1/embed?owner=er&mode=stream", pubsXML(t, 5, 1))
	if code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated stream embed: %d %s", code, body)
	}
}

// TestStreamClientDisconnect: a client that vanishes mid-upload must
// not leave server goroutines behind.
func TestStreamClientDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()
	_, ts := newTestServer(t, Options{StreamChunkSize: 4})
	registerOwner(t, ts.URL, "dc")
	doc := pubsXML(t, 200, 6)

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/embed?owner=dc&mode=stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-dc")
	done := make(chan struct{})
	go func() {
		defer close(done)
		// With full-duplex streaming, Do returns once headers arrive —
		// possibly before the disconnect; drain whatever body the server
		// managed to write before the abort.
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Feed half the document, then kill the client.
	if _, err := pw.Write(doc[:len(doc)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	pw.CloseWithError(fmt.Errorf("client went away"))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client call did not finish after the abort")
	}

	// The handler must unwind: poll the goroutine count back to (near)
	// its baseline.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 { // httptest keeps a couple of listeners
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the server still works.
	code, _, _ := doAs(t, "key-dc", "POST", ts.URL+"/v1/embed?owner=dc", pubsXML(t, 10, 1))
	if code != http.StatusOK {
		t.Fatalf("server unhealthy after disconnect: %d", code)
	}
}

// TestStreamRefusesNonChunkableSpec: an owner whose document type
// cannot chunk (root-level target scope) must be refused on the
// streaming endpoints before any body is read — the in-memory fallback
// must never run against a MaxStreamBytes-sized body.
func TestStreamRefusesNonChunkableSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// A spec whose target scope is the document root: db/total has
	// scope "db", so record chunking is unsound.
	spec := `{
	  "name": "flat",
	  "schema": {"root": "db", "elements": {
	    "db": {"children": [{"name": "name", "max": 1}, {"name": "total", "max": 1}]},
	    "name": {"type": "string"},
	    "total": {"type": "integer"}}},
	  "keys": [{"scope": "db", "path": "name"}],
	  "targets": ["db/total"]
	}`
	owner := fmt.Sprintf(`{"id":"flat","key":"key-flat","mark":"W","spec":%s,"gamma":1}`, spec)
	code, body, _ := do(t, "POST", ts.URL+"/v1/owners", []byte(owner))
	if code != http.StatusOK {
		t.Fatalf("register: %d %s", code, body)
	}
	doc := []byte(`<db><name>flat-export</name><total>100</total></db>`)
	code, body, _ = doAs(t, "key-flat", "POST", ts.URL+"/v1/embed?owner=flat&mode=stream", doc)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "cannot stream") {
		t.Fatalf("non-chunkable stream embed not refused: %d %s", code, body)
	}
	code, body, _ = doAs(t, "key-flat", "POST", ts.URL+"/v1/detect?owner=flat&mode=stream-blind", doc)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "cannot stream") {
		t.Fatalf("non-chunkable stream detect not refused: %d %s", code, body)
	}
	// The buffered endpoints still serve this owner.
	code, _, _ = doAs(t, "key-flat", "POST", ts.URL+"/v1/embed?owner=flat", doc)
	if code != http.StatusOK {
		t.Fatalf("buffered embed for flat spec: %d", code)
	}
}

// TestStreamBodyOverCap: a body over MaxStreamBytes is the client's
// error, answered 413 like the buffered routes and counted in
// wmxmld_body_too_large_total on both stream routes. Once streamed
// output has started the status is spoken for, so embed reports the
// cap in its error trailer instead, and still counts it.
func TestStreamBodyOverCap(t *testing.T) {
	doc := pubsXML(t, 60, 3)
	for _, tc := range []struct {
		name, route string
		cap         int64
		started     bool // embed output begins before the cap is hit
	}{
		{"detect", "/v1/detect?owner=cap&mode=stream-blind", 4096, false},
		{"embed-before-output", "/v1/embed?owner=cap&mode=stream", 32, false},
		{"embed-after-output", "/v1/embed?owner=cap&mode=stream", 4096, true},
	} {
		s, ts := newTestServer(t, Options{MaxStreamBytes: tc.cap})
		registerOwner(t, ts.URL, "cap")
		req, err := http.NewRequest("POST", ts.URL+tc.route, bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer key-cap")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tc.started {
			if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Trailer.Get("X-Wmxml-Stream-Error"), "request body too large") {
				t.Errorf("%s: %d, error trailer %q", tc.name, resp.StatusCode, resp.Trailer.Get("X-Wmxml-Stream-Error"))
			}
		} else if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "request body too large") {
			t.Errorf("%s: %d %s", tc.name, resp.StatusCode, body)
		}
		if n := s.met.tooLarge.Value(); n != 1 {
			t.Errorf("%s: wmxmld_body_too_large_total = %d, want 1", tc.name, n)
		}
	}
}
