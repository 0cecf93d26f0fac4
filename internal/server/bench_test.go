package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"wmxml/internal/datagen"
	"wmxml/internal/registry"
	"wmxml/internal/xmltree"
)

// BenchmarkWarmDetectVsDecode prices a warm /v1/detect against the
// decode it runs. One op serves an in-process request for a marked
// 1,000-record pubs document, with the doc and plan caches hot, and
// runs the cached decode plan's Detect on the cached document and
// index, alternating which goes first. What the request adds to the
// decode is per-request work: auth, the body read, the cache lookup,
// the registry read, the verdict and the telemetry. From 5 ops on the
// benchmark fails when the request's p50 reaches 1.8 times the
// decode's p50.
func BenchmarkWarmDetectVsDecode(b *testing.B) {
	const minOps, maxRatio = 5, 1.8
	// This package's tests overwrite every returned body buffer, a
	// loop over the whole buffer that no server runs; it would be timed
	// with each request.
	defer func(hook func([]byte)) { onBodyReturn = hook }(onBodyReturn)
	onBodyReturn = nil

	s, err := New(Options{Registry: registry.NewMemory()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	w := &replyWriter{h: http.Header{}}
	serve := func(path, key string, body []byte) []byte {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, w.code, w.body.Bytes())
		}
		return bytes.Clone(w.body.Bytes())
	}
	serve("/v1/owners", "", []byte(`{"id":"acme","key":"key-acme","mark":"(C) acme","dataset":"pubs","gamma":3}`))
	doc := datagen.Publications(datagen.PubConfig{Books: 1000, Seed: 3}).Doc
	marked := serve("/v1/embed?owner=acme", "key-acme", []byte(xmltree.SerializeIndentString(doc)))
	serve("/v1/detect?owner=acme", "key-acme", marked) // fills the doc and plan caches
	var warm detectResponse
	if err := json.Unmarshal(serve("/v1/detect?owner=acme", "key-acme", marked), &warm); err != nil {
		b.Fatal(err)
	}
	cd, ok := s.cache.get(marked)
	plan, planOK := s.dplan.Get(dplanKey{"acme", warm.Receipt, planDetect})
	if !warm.CacheHit || !warm.Detected || !ok || !planOK {
		b.Fatalf("warm detect: cache hit %v, detected %v; cached doc %v, cached plan %v", warm.CacheHit, warm.Detected, ok, planOK)
	}

	body := bytes.NewReader(marked)
	req := httptest.NewRequest("POST", "/v1/detect?owner=acme", body)
	req.Header.Set("Authorization", "Bearer key-acme")
	detect := func() {
		body.Reset(marked)
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("warm detect: %d %s", w.code, w.body.Bytes())
		}
	}
	decode := func() {
		if !plan.plan.Detect(cd.doc, cd.ix).Detected {
			b.Fatal("the cached plan does not detect the cached document")
		}
	}
	req1 := make([]time.Duration, b.N)
	dec := make([]time.Duration, b.N)
	run := func(fn func(), d *time.Duration) {
		t0 := time.Now()
		fn()
		*d = time.Since(t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			run(detect, &req1[i])
			run(decode, &dec[i])
		} else {
			run(decode, &dec[i])
			run(detect, &req1[i])
		}
	}
	b.StopTimer()
	p50 := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[(len(ds)-1)/2]
	}
	reqP50, decP50 := p50(req1), p50(dec)
	ratio := float64(reqP50) / float64(decP50)
	b.ReportMetric(float64(reqP50.Nanoseconds()), "detect-p50-ns")
	b.ReportMetric(float64(decP50.Nanoseconds()), "decode-p50-ns")
	b.ReportMetric(ratio, "detect/decode")
	if b.N >= minOps && ratio >= maxRatio {
		b.Fatalf("warm detect p50 %v is %.2fx the decode p50 %v, want under %.1fx", reqP50, ratio, decP50, maxRatio)
	}
}
