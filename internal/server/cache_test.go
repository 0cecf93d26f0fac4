package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"wmxml/internal/registry"
	"wmxml/internal/xmltree"
)

// TestLRU covers the one cache type behind the document, decode-plan
// and delivery-plan caches. Each step is a Put (with the eviction count
// it must return) or a Get (with whether it must hit); the case then
// pins which keys survive and their total weight.
func TestLRU(t *testing.T) {
	type step struct {
		get     bool
		key     string
		weight  int64
		evicted int  // Put: evictions it must return
		hit     bool // Get: whether it must hit
	}
	put := func(k string, w int64, evicted int) step { return step{key: k, weight: w, evicted: evicted} }
	get := func(k string, hit bool) step { return step{get: true, key: k, hit: hit} }
	for _, tc := range []struct {
		name       string
		maxEntries int
		maxWeight  int64
		steps      []step
		keep       []string
		weight     int64
	}{
		{"count bound evicts the least recent", 2, 0,
			[]step{put("a", 0, 0), put("b", 0, 0), put("c", 0, 1), get("a", false)},
			[]string{"b", "c"}, 0},
		{"weight bound evicts until the total fits", 10, 10,
			[]step{put("a", 4, 0), put("b", 4, 0), put("c", 6, 1), get("a", false)},
			[]string{"b", "c"}, 10},
		{"over-weight value is not stored", 10, 10,
			[]step{put("a", 4, 0), put("big", 11, 0), get("big", false)},
			[]string{"a"}, 4},
		{"get refreshes recency", 2, 0,
			[]step{put("a", 0, 0), put("b", 0, 0), get("a", true), put("c", 0, 1), get("b", false)},
			[]string{"a", "c"}, 0},
		{"replacement updates the total weight", 10, 10,
			[]step{put("a", 4, 0), put("b", 3, 0), put("a", 6, 0), put("c", 2, 1), get("b", false)},
			[]string{"a", "c"}, 8},
		{"one put reports every eviction", 10, 10,
			[]step{put("a", 3, 0), put("b", 3, 0), put("c", 3, 0), put("d", 10, 3)},
			[]string{"d"}, 10},
		{"zero entries disables the cache", 0, 0,
			[]step{put("a", 1, 0), get("a", false)},
			nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRU[string, int](tc.maxEntries, tc.maxWeight)
			for i, st := range tc.steps {
				if st.get {
					if _, ok := c.Get(st.key); ok != st.hit {
						t.Fatalf("step %d: Get(%q) hit=%v, want %v", i, st.key, ok, st.hit)
					}
				} else if n := c.Put(st.key, i, st.weight); n != st.evicted {
					t.Fatalf("step %d: Put(%q, weight %d) evicted %d, want %d", i, st.key, st.weight, n, st.evicted)
				}
			}
			if c.Len() != len(tc.keep) || c.Weight() != tc.weight {
				t.Fatalf("Len=%d Weight=%d, want %d and %d", c.Len(), c.Weight(), len(tc.keep), tc.weight)
			}
			for _, k := range tc.keep {
				if _, ok := c.Get(k); !ok {
					t.Errorf("%q was evicted", k)
				}
			}
		})
	}
}

// detectAs posts a detect and decodes the verdict.
func detectAs(t *testing.T, key, url string, body []byte) detectResponse {
	t.Helper()
	code, out, _ := doAs(t, key, "POST", url, body)
	if code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, out)
	}
	var det detectResponse
	if err := json.Unmarshal(out, &det); err != nil {
		t.Fatal(err)
	}
	return det
}

// TestDecodePlanStaleAfterRotation: a decode plan compiled under a
// superseded owner runtime is a miss. After a key rotation, detecting
// with the old receipt must recompile under the new key and return
// what a server with a cold plan cache returns — not the old plan's
// verdict.
func TestDecodePlanStaleAfterRotation(t *testing.T) {
	reg := registry.NewMemory()
	s, ts := newTestServer(t, Options{Registry: reg})
	registerOwner(t, ts.URL, "acme")
	code, marked, hdr := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", pubsXML(t, 120, 5))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	url := ts.URL + "/v1/detect?owner=acme&receipt=" + hdr.Get("X-Wmxml-Receipt")
	if det := detectAs(t, "key-acme", url, marked); !det.Detected {
		t.Fatalf("detect before rotation: %+v", det)
	}

	rotated := `{"id":"acme","key":"rotated-key","mark":"(C) acme","dataset":"pubs","gamma":3}`
	if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/owners", []byte(rotated)); code != http.StatusOK {
		t.Fatalf("rotate: %d %s", code, body)
	}
	hits, misses, _ := s.PlanCacheStats()
	got := detectAs(t, "rotated-key", url, marked)
	if h, m, _ := s.PlanCacheStats(); h != hits || m != misses+1 {
		t.Errorf("detect after rotation: %d hits, %d misses, want 0 and 1", h-hits, m-misses)
	}

	_, fresh := newTestServer(t, Options{Registry: reg})
	want := detectAs(t, "rotated-key", fresh.URL+"/v1/detect?owner=acme&receipt="+hdr.Get("X-Wmxml-Receipt"), marked)
	if got.Detected != want.Detected || got.MatchFraction != want.MatchFraction {
		t.Errorf("after rotation: detected=%v match=%.3f, a fresh compile gives detected=%v match=%.3f",
			got.Detected, got.MatchFraction, want.Detected, want.MatchFraction)
	}
}

// TestDetectCompilesOnlyTriedReceipts: the receipt sweep stops at the
// first detected verdict, so it must compile (or look up) the decode
// plan only of the receipts it tries. With 5 receipts and the newest
// copy, one detect is one miss and the next is one hit.
func TestDetectCompilesOnlyTriedReceipts(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	var marked []byte
	for seed := int64(1); seed <= 5; seed++ {
		code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", pubsXML(t, 120, seed))
		if code != http.StatusOK {
			t.Fatalf("embed %d: %d %s", seed, code, body)
		}
		marked = body
	}
	for i, want := range [][2]uint64{{0, 1}, {1, 1}} {
		det := detectAs(t, "key-acme", ts.URL+"/v1/detect?owner=acme", marked)
		if !det.Detected || det.ReceiptsTried != 1 {
			t.Fatalf("detect %d: detected=%v after %d receipts, want the first", i, det.Detected, det.ReceiptsTried)
		}
		if hits, misses, _ := s.PlanCacheStats(); hits != want[0] || misses != want[1] {
			t.Errorf("after detect %d: plan cache %d hits, %d misses, want %d and %d", i, hits, misses, want[0], want[1])
		}
	}
}

// TestDetectMissSingleflight is the thundering-herd regression test:
// concurrent cold detects of the same body must share one parse+index.
// Before the fix each of them did the full work.
//
// The test holds the flight itself, so the assertion cannot be
// satisfied by lucky serialization (requests finishing before the rest
// arrive would hit the cache instead): it joins the flight for the
// body's hash, fires 16 detects, waits until all 16 have coalesced onto
// the live flight, and only then does the leader's work — fillDoc, then
// complete. No request arriving during the fill may parse again.
func TestDetectMissSingleflight(t *testing.T) {
	const clients = 16
	s, ts := newTestServer(t, Options{Workers: clients})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 150, 7))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}

	sum := string(marked)
	call, leader := s.cache.join(sum)
	if !leader {
		t.Fatal("the test did not get the flight")
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
			if code != http.StatusOK {
				errs <- fmt.Errorf("detect: %d %s", code, body)
				return
			}
			var det struct {
				Detected bool `json:"detected"`
			}
			if err := json.Unmarshal(body, &det); err != nil || !det.Detected {
				errs <- fmt.Errorf("detect verdict: %s (%v)", body, err)
			}
		}()
	}
	// Fill even if the wait times out, so no detect is left blocked; the
	// coalesced count below then reports the shortfall.
	for deadline := time.Now().Add(10 * time.Second); s.CacheFlightStats() < clients && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cd, err := s.fillDoc(sum, marked, nil)
	s.cache.complete(sum, call, cd, err)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	hits, misses, _, _ := s.CacheStats()
	if misses != 0 {
		t.Errorf("%d of the detects that arrived during the fill parsed again, want 0", misses)
	}
	if coalesced := s.CacheFlightStats(); coalesced != clients {
		t.Errorf("coalesced waiters = %d, want %d", coalesced, clients)
	}
	if hits != 0 {
		t.Errorf("cache hits = %d during the cold burst, want 0", hits)
	}

	// The flight is retired: a fresh request is a plain cache hit.
	if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked); code != http.StatusOK {
		t.Fatalf("post-burst detect: %d %s", code, body)
	}
	if hits, _, _, _ := s.CacheStats(); hits != 1 {
		t.Errorf("post-burst hits = %d, want 1", hits)
	}
}

// TestSingleflightErrorPropagates: a leader whose body fails to parse
// must hand the error to every waiter — not a zero-value document.
func TestSingleflightErrorPropagates(t *testing.T) {
	c := newDocCache(4, 0)
	key := "bad body"
	call, leader := c.join(key)
	if !leader {
		t.Fatal("first join was not the leader")
	}
	waiter, leader2 := c.join(key)
	if leader2 || waiter != call {
		t.Fatal("second join did not coalesce onto the live flight")
	}
	wantErr := fmt.Errorf("parse exploded")
	c.complete(key, call, cachedDoc{}, wantErr)
	waiter.wg.Wait()
	if waiter.err != wantErr {
		t.Fatalf("waiter saw err=%v, want the leader's error", waiter.err)
	}
	// The flight is gone; the next join starts fresh.
	if _, leader := c.join(key); !leader {
		t.Fatal("join after complete did not start a new flight")
	}
}

// TestDocCacheKeyIsTheBody: the document cache is keyed by the body's
// bytes, so a hit is exact and no key refers to a request's pooled
// buffer. Two bodies of one length that differ in one digit of a record
// value each miss once and then hit their own entry, whose tree is
// their own parse. Every request here is served in-process, so its
// buffer has been returned, and overwritten with 0xA5 by this package's
// onBodyReturn hook, before the next one starts: a fresh copy of a body
// still hits, and a body of 0xA5 bytes of the same length, which is
// what a key aliasing a returned buffer would read, never does.
func TestDocCacheKeyIsTheBody(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme", pubsXML(t, 150, 7))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	other := bytes.Clone(marked)
	i := bytes.Index(other[len(other)/2:], []byte("<year>")) + len(other)/2 + len("<year>") + 3
	if other[i] == '0' {
		other[i] = '1'
	} else {
		other[i] = '0'
	}
	poison := bytes.Repeat([]byte{0xA5}, len(marked))

	h := s.Handler()
	// detect serves a fresh copy of body and reports its status, its
	// verdict less the fields that differ between a miss and a hit, and
	// whether the cache was hit (from the counters, not the verdict).
	detect := func(body []byte) (int, map[string]any, bool) {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/detect?owner=acme", bytes.NewReader(bytes.Clone(body)))
		req.Header.Set("Authorization", "Bearer key-acme")
		w := httptest.NewRecorder()
		hits, misses, _, _ := s.CacheStats()
		h.ServeHTTP(w, req)
		hits2, misses2, _, _ := s.CacheStats()
		if hits2-hits+misses2-misses != 1 {
			t.Fatalf("one detect moved cache hits by %d and misses by %d", hits2-hits, misses2-misses)
		}
		var verdict map[string]any
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &verdict); err != nil {
				t.Fatal(err)
			}
			delete(verdict, "cache_hit")
			delete(verdict, "elapsed_ms")
		}
		return w.Code, verdict, hits2 > hits
	}
	bodies := [][]byte{marked, other}
	cold := make([]map[string]any, len(bodies))
	for round, wantHit := range []bool{false, true, true} {
		for i, body := range bodies {
			code, verdict, hit := detect(body)
			if code != http.StatusOK || hit != wantHit {
				t.Fatalf("round %d, body %d: status %d, cache hit %v, want 200 and %v", round, i, code, hit, wantHit)
			}
			if round == 0 {
				cold[i] = verdict
			} else if !reflect.DeepEqual(verdict, cold[i]) {
				t.Errorf("round %d, body %d: verdict %v, its own cold verdict %v", round, i, verdict, cold[i])
			}
		}
	}
	if n, w := s.cache.Len(), s.cache.Weight(); n != 2 || w != int64(2*len(marked)) {
		t.Errorf("cache holds %d entries of %d bytes, want 2 of %d", n, w, 2*len(marked))
	}
	for _, body := range bodies {
		cd, ok := s.cache.get(body)
		if !ok {
			t.Fatal("a served body has no entry")
		}
		want, err := xmltree.ParseBytes(body, xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if xmltree.SerializeIndentString(cd.doc) != xmltree.SerializeIndentString(want) {
			t.Error("an entry's tree is not its own body's parse")
		}
	}
	for range 2 {
		if code, _, hit := detect(poison); code != http.StatusBadRequest || hit {
			t.Fatalf("a body of 0xA5 bytes: status %d, cache hit %v, want 400 and a miss", code, hit)
		}
	}
}

// countingStore wraps a Store and counts GetOwner calls, to observe how
// often a request reads its owner record.
type countingStore struct {
	registry.Store
	mu       sync.Mutex
	getOwner int
}

func (c *countingStore) GetOwner(id string) (registry.Owner, error) {
	c.mu.Lock()
	c.getOwner++
	c.mu.Unlock()
	return c.Store.GetOwner(id)
}

func (c *countingStore) calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getOwner
}

// TestOwnerReadOncePerRequest: an owner-scoped request reads its owner
// record once, in runtimeFor. The metrics fold takes the owner's SLO
// objectives from the compiled runtime rather than reading the record
// again, also on the first requests after start, which build the
// runtime; the record's override reaches the owner's SLO block that
// way. The response body is read to its end, which net/http sends only
// after the request has been folded.
func TestOwnerReadOncePerRequest(t *testing.T) {
	cs := &countingStore{Store: registry.NewMemory()}
	owner := registry.Owner{ID: "acme", Key: "key-acme", Mark: "(C) acme", Dataset: "pubs", Gamma: 3, CreatedUnix: 1,
		SLO: &registry.SLOOverride{DetectP99MS: 5}}
	if err := cs.PutOwner(owner); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Registry: cs})
	doc := pubsXML(t, 60, 1)
	for _, route := range []string{"/v1/embed", "/v1/verify"} {
		before := cs.calls()
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+route+"?owner=acme", doc); code != http.StatusOK {
			t.Fatalf("%s: %d %s", route, code, body)
		}
		if n := cs.calls() - before; n != 1 {
			t.Errorf("%s read the owner record %d times, want 1", route, n)
		}
	}
	got := -1.0
	for _, ev := range s.met.evaluateSLO(time.Now().Unix()) {
		if ev.Owner == "acme" {
			got = ev.DetectP99MS
		}
	}
	if got != 5 {
		t.Errorf("acme's detect_p99 objective is %vms (-1: no block), want the record's 5ms", got)
	}
}
