package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"wmxml/internal/registry"
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

	sum := sha256.Sum256(marked)
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
	key := sha256.Sum256([]byte("bad body"))
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

// countingStore wraps a Store and counts GetOwner calls, to observe the
// OwnerRefresh fast path skipping registry reads.
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

// TestOwnerRefreshSkipsRegistry: with OwnerRefresh set, repeat requests
// inside the window reuse the compiled runtime without re-reading the
// owner record — the point of the knob when the registry is remote —
// while the credential check still runs against the cached record.
func TestOwnerRefreshSkipsRegistry(t *testing.T) {
	cs := &countingStore{Store: registry.NewMemory()}
	_, ts := newTestServer(t, Options{Registry: cs, OwnerRefresh: time.Hour})
	registerOwner(t, ts.URL, "acme")
	code, doc, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 60, 1))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, doc)
	}

	if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", doc); code != http.StatusOK {
		t.Fatalf("first detect: %d %s", code, body)
	}
	base := cs.calls()
	for i := 0; i < 10; i++ {
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", doc); code != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, code, body)
		}
	}
	if got := cs.calls(); got != base {
		t.Errorf("10 in-window detects read the owner record %d times, want 0", got-base)
	}
	// Authentication is not relaxed by the staleness bound.
	if code, _, _ := doAs(t, "wrong-key", "POST", ts.URL+"/v1/detect?owner=acme", doc); code != http.StatusUnauthorized {
		t.Errorf("stale-path detect with wrong key = %d, want 401", code)
	}
}
