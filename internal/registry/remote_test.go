package registry

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// countingHolder wraps the registry API handler and counts requests,
// so the cache tests can assert what actually crossed the wire.
func countingHolder(t *testing.T, key string) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var requests, notModified atomic.Int64
	inner := NewHTTPHandler(NewMemory(), key)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code == http.StatusNotModified {
			notModified.Add(1)
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv, &requests, &notModified
}

// TestRemoteAuth: a wrong or missing cluster key is refused by the
// holder and surfaces as an error, not silent emptiness.
func TestRemoteAuth(t *testing.T) {
	srv := httptest.NewServer(NewHTTPHandler(NewMemory(), "right-key"))
	t.Cleanup(srv.Close)

	bad, err := OpenRemote(srv.URL, RemoteOptions{Key: "wrong-key"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.PutOwner(testOwner("acme")); err == nil {
		t.Fatal("write with wrong cluster key succeeded")
	}
	missing, err := OpenRemote(srv.URL, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := missing.ListOwners(); err == nil {
		t.Fatal("read with no cluster key succeeded")
	}
}

// TestAPIAuthorizationHeader: the registry API reads Authorization as
// the service does (registry.BearerToken: any casing of the scheme, the
// token trimmed), with 401 for a missing token and 403 for a wrong one.
func TestAPIAuthorizationHeader(t *testing.T) {
	h := NewHTTPHandler(NewMemory(), "ck")
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"Bearer ck", http.StatusOK},
		{"bearer ck", http.StatusOK},
		{"BEARER ck", http.StatusOK},
		{"Bearer  ck", http.StatusOK},
		{"", http.StatusUnauthorized},
		{"Bearer", http.StatusUnauthorized},
		{"Basic ck", http.StatusUnauthorized},
		{"Bearer wrong", http.StatusForbidden},
	} {
		req := httptest.NewRequest("GET", "/owners", nil)
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("Authorization %q: status %d, want %d (%s)", tc.header, rec.Code, tc.want, rec.Body.Bytes())
		}
	}
}

// TestRemoteTTLCache: within the TTL, repeated reads are served from
// the local cache with zero wire traffic; past it, reads revalidate
// with If-None-Match and unchanged data comes back as a bodyless 304.
func TestRemoteTTLCache(t *testing.T) {
	srv, requests, notModified := countingHolder(t, "k")
	rm, err := OpenRemote(srv.URL, RemoteOptions{Key: "k", CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if err := rm.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}

	if _, err := rm.GetOwner("acme"); err != nil {
		t.Fatal(err)
	}
	base := requests.Load()
	for i := 0; i < 10; i++ {
		if o, err := rm.GetOwner("acme"); err != nil || o.Key != "k-acme" {
			t.Fatalf("cached GetOwner = %+v, %v", o, err)
		}
	}
	if got := requests.Load(); got != base {
		t.Fatalf("10 in-TTL reads crossed the wire %d times, want 0", got-base)
	}

	// Force the entry stale; the next read revalidates and — nothing
	// changed — gets a 304.
	rm.mu.Lock()
	for _, e := range rm.cache {
		e.expires = time.Time{}
	}
	rm.mu.Unlock()
	if _, err := rm.GetOwner("acme"); err != nil {
		t.Fatal(err)
	}
	if notModified.Load() == 0 {
		t.Fatal("stale read did not revalidate via If-None-Match/304")
	}
}

// TestRemoteWriteInvalidation: a node always reads its own writes —
// writing through the client drops the owner's cached entries even
// inside the TTL.
func TestRemoteWriteInvalidation(t *testing.T) {
	srv, _, _ := countingHolder(t, "k")
	rm, err := OpenRemote(srv.URL, RemoteOptions{Key: "k", CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if err := rm.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}
	if o, err := rm.GetOwner("acme"); err != nil || o.Gamma != 5 {
		t.Fatalf("GetOwner = %+v, %v", o, err)
	}
	upd := testOwner("acme")
	upd.Gamma = 42
	if err := rm.PutOwner(upd); err != nil {
		t.Fatal(err)
	}
	if o, err := rm.GetOwner("acme"); err != nil || o.Gamma != 42 {
		t.Fatalf("own write not visible through cache: %+v, %v", o, err)
	}

	// Receipts too: list, append, list again.
	if err := rm.AddReceipt(testReceipt("acme", "r1")); err != nil {
		t.Fatal(err)
	}
	if recs, err := rm.ListReceipts("acme"); err != nil || len(recs) != 1 {
		t.Fatalf("ListReceipts = %d, %v", len(recs), err)
	}
	if err := rm.AddReceipt(testReceipt("acme", "r2")); err != nil {
		t.Fatal(err)
	}
	if recs, err := rm.ListReceipts("acme"); err != nil || len(recs) != 2 {
		t.Fatalf("ListReceipts after own append = %d, %v (cache not invalidated)", len(recs), err)
	}
}

// TestRemoteReadRacingOwnWrite: a read that is on the wire while a
// write through the same client lands must not cache what it fetched.
// The holder computes one GET's answer before the write and delays it
// until the write has completed; the next read must see the write, not
// the pre-write record for a full TTL (a rotated key refused, the old
// one accepted).
func TestRemoteReadRacingOwnWrite(t *testing.T) {
	inner := NewHTTPHandler(NewMemory(), "k")
	var hold atomic.Bool
	fetched, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !hold.CompareAndSwap(true, false) {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		close(fetched)
		<-release
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	rm, err := OpenRemote(srv.URL, RemoteOptions{Key: "k", CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if err := rm.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}

	hold.Store(true)
	held := make(chan Owner, 1)
	go func() {
		o, err := rm.GetOwner("acme")
		if err != nil {
			t.Error(err)
		}
		held <- o
	}()
	<-fetched
	upd := testOwner("acme")
	upd.Gamma = 42
	putErr := rm.PutOwner(upd)
	close(release)
	if o := <-held; o.Gamma != 5 {
		t.Fatalf("held read returned gamma %d, want the pre-write 5", o.Gamma)
	}
	if putErr != nil {
		t.Fatal(putErr)
	}
	if o, err := rm.GetOwner("acme"); err != nil || o.Gamma != 42 {
		t.Fatalf("read after own write = %+v, %v; want gamma 42", o, err)
	}
}

// TestRemoteCrossClientTTL: a second client sees another writer's
// update after its TTL expires (revalidation catches the new ETag).
func TestRemoteCrossClientTTL(t *testing.T) {
	srv, _, _ := countingHolder(t, "k")
	a, err := OpenRemote(srv.URL, RemoteOptions{Key: "k", CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenRemote(srv.URL, RemoteOptions{Key: "k", CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}
	if o, err := b.GetOwner("acme"); err != nil || o.Gamma != 5 {
		t.Fatalf("b.GetOwner = %+v, %v", o, err)
	}
	upd := testOwner("acme")
	upd.Gamma = 42
	if err := a.PutOwner(upd); err != nil {
		t.Fatal(err)
	}
	// Inside the TTL, b may serve its cache (bounded staleness — by
	// design). Force expiry to model the TTL lapsing.
	b.mu.Lock()
	for _, e := range b.cache {
		e.expires = time.Time{}
	}
	b.mu.Unlock()
	if o, err := b.GetOwner("acme"); err != nil || o.Gamma != 42 {
		t.Fatalf("b did not see a's write after TTL: %+v, %v", o, err)
	}
}

// TestRemoteErrorMapping: the HTTP status vocabulary round-trips back
// into the Store error vocabulary.
func TestRemoteErrorMapping(t *testing.T) {
	srv, _, _ := countingHolder(t, "k")
	rm, err := OpenRemote(srv.URL, RemoteOptions{Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if _, err := rm.GetOwner("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetOwner(missing) = %v, want ErrNotFound", err)
	}
	if err := rm.AddReceipt(testReceipt("ghost", "r1")); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddReceipt(unknown owner) = %v, want ErrNotFound", err)
	}
	if err := rm.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}
	if err := rm.AddReceipt(testReceipt("acme", "r1")); err != nil {
		t.Fatal(err)
	}
	if err := rm.AddReceipt(testReceipt("acme", "r1")); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate receipt = %v, want ErrDuplicate", err)
	}
	if _, err := rm.GetPlan("acme", "0123"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetPlan(missing) = %v, want ErrNotFound", err)
	}
}

// TestRemoteBadBaseURL rejects non-http bases at open time.
func TestRemoteBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "ftp://x", "not a url\x00"} {
		if _, err := OpenRemote(bad, RemoteOptions{}); err == nil {
			t.Errorf("OpenRemote(%q) succeeded", bad)
		}
	}
}
