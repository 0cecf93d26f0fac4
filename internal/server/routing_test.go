package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wmxml/internal/cluster"
	"wmxml/internal/registry"
)

// newFleet starts n servers over one shared registry, wired as a
// consistent-hash fleet. The listeners come up first (their URLs are
// the node identities), then the servers are bound into them.
func newFleet(t *testing.T, n int, opts Options) ([]*Server, []string) {
	t.Helper()
	reg := opts.Registry
	if reg == nil {
		reg = registry.NewMemory()
	}
	handlers := make([]http.Handler, n)
	nodes := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes[i] = ts.URL
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		o := opts
		o.Registry = reg
		o.FleetNodes = nodes
		o.FleetSelf = nodes[i]
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers[i] = s
		handlers[i] = s.Handler()
	}
	return servers, nodes
}

// ownersHomedOn finds n owner ids whose consistent-hash home is the
// given node — so the tests can aim requests at (or away from) it.
func ownersHomedOn(t *testing.T, nodes []string, node string, n int) []string {
	t.Helper()
	ring, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4096 && len(ids) < n; i++ {
		id := fmt.Sprintf("tenant-%04d", i)
		if ring.Node(id) == node {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found %d owners homed on %s in 4096 candidates, want %d", len(ids), node, n)
	}
	return ids
}

// TestFleetRouting: a request landing on the wrong node is proxied to
// the owner's home node (visible in X-Wmxml-Node and the proxied
// counter); a request landing on the right node is served in place.
func TestFleetRouting(t *testing.T) {
	servers, nodes := newFleet(t, 2, Options{})
	remote := ownersHomedOn(t, nodes, nodes[1], 1)[0]

	// Registration routes too — the body peek finds the owner id.
	registerOwner(t, nodes[0], remote)
	if p := servers[0].FleetStats(); p != 1 {
		t.Fatalf("registration via the wrong node proxied %d requests, want 1", p)
	}
	code, doc, _ := doAs(t, "key-"+remote, "POST", nodes[1]+"/v1/embed?owner="+remote+"&doc=d.xml", pubsXML(t, 60, 1))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, doc)
	}

	// Wrong node: served by the home node through the proxy.
	code, body, hdr := doAs(t, "key-"+remote, "POST", nodes[0]+"/v1/detect?owner="+remote, doc)
	if code != http.StatusOK {
		t.Fatalf("routed detect: %d %s", code, body)
	}
	if got := hdr.Get("X-Wmxml-Node"); got != nodes[1] {
		t.Errorf("routed detect served by %q, want home node %q", got, nodes[1])
	}
	if p := servers[0].FleetStats(); p != 2 {
		t.Errorf("proxied counter = %d, want 2", p)
	}
	// Only the home node's cache warmed.
	if _, _, _, size := servers[1].CacheStats(); size != 1 {
		t.Errorf("home node cached %d docs, want 1", size)
	}
	if _, _, _, size := servers[0].CacheStats(); size != 0 {
		t.Errorf("entry node cached %d docs, want 0", size)
	}

	// Right node: served locally, proxy counters untouched.
	code, _, hdr = doAs(t, "key-"+remote, "POST", nodes[1]+"/v1/detect?owner="+remote, doc)
	if code != http.StatusOK {
		t.Fatal("direct detect failed")
	}
	if got := hdr.Get("X-Wmxml-Node"); got != nodes[1] {
		t.Errorf("direct detect served by %q, want %q", got, nodes[1])
	}
	if p := servers[1].FleetStats(); p != 0 {
		t.Errorf("home node proxied %d requests, want 0", p)
	}

	// Receipts listing routes on the path owner.
	code, body, hdr = doAs(t, "key-"+remote, "GET", nodes[0]+"/v1/owners/"+remote+"/receipts", nil)
	if code != http.StatusOK {
		t.Fatalf("routed receipts: %d %s", code, body)
	}
	if got := hdr.Get("X-Wmxml-Node"); got != nodes[1] {
		t.Errorf("routed receipts served by %q, want %q", got, nodes[1])
	}
}

// TestFleetCacheResidency: what a fleet buys is aggregate cache
// capacity. 24 tenants, 6 homed on each of 4 nodes with 12-entry
// document caches, detect their own documents twice, each request
// entering through a different node than the last. The second round is
// all cache hits served by each tenant's home node, and no entry node
// keeps a copy of a document it proxied. One node with the same cache
// cycles through all 24 working sets and the second round hits nothing.
func TestFleetCacheResidency(t *testing.T) {
	const perNode, entries = 6, 12
	servers, nodes := newFleet(t, 4, Options{CacheEntries: entries})
	var owners, homes []string
	for _, node := range nodes {
		for _, id := range ownersHomedOn(t, nodes, node, perNode) {
			owners, homes = append(owners, id), append(homes, node)
		}
	}
	single, ts := newTestServer(t, Options{CacheEntries: entries})

	// detectTwice embeds one document per owner through entry(i, 0),
	// then detects every owner's copy in two rounds through entry(i, r)
	// and returns the second round's responses and serving nodes.
	detectTwice := func(entry func(i, round int) string) (hits []bool, servedBy []string) {
		t.Helper()
		marked := make([][]byte, len(owners))
		for i, id := range owners {
			registerOwner(t, entry(i, 0), id)
			code, body, _ := doAs(t, "key-"+id, "POST", entry(i, 0)+"/v1/embed?owner="+id, pubsXML(t, 60, int64(i+1)))
			if code != http.StatusOK {
				t.Fatalf("embed %s: %d %s", id, code, body)
			}
			marked[i] = body
		}
		for round := 1; round <= 2; round++ {
			hits, servedBy = hits[:0], servedBy[:0]
			for i, id := range owners {
				code, body, hdr := doAs(t, "key-"+id, "POST", entry(i, round)+"/v1/detect?owner="+id, marked[i])
				if code != http.StatusOK {
					t.Fatalf("round %d detect %s: %d %s", round, id, code, body)
				}
				var resp struct {
					CacheHit bool `json:"cache_hit"`
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				hits, servedBy = append(hits, resp.CacheHit), append(servedBy, hdr.Get("X-Wmxml-Node"))
			}
		}
		return hits, servedBy
	}

	hits, servedBy := detectTwice(func(i, round int) string { return nodes[(i+round)%len(nodes)] })
	for i, id := range owners {
		if !hits[i] || servedBy[i] != homes[i] {
			t.Errorf("fleet round 2, %s: cache_hit=%v served by %q, want a hit on home node %q", id, hits[i], servedBy[i], homes[i])
		}
	}
	for i, s := range servers {
		if _, _, _, size := s.CacheStats(); size != perNode {
			t.Errorf("node %d caches %d documents, want its own %d tenants' only", i, size, perNode)
		}
	}

	hits, _ = detectTwice(func(int, int) string { return ts.URL })
	for i, id := range owners {
		if hits[i] {
			t.Errorf("single node round 2, %s: cache hit with %d tenants over %d entries", id, len(owners), entries)
		}
	}
	if h, _, _, _ := single.CacheStats(); h != 0 {
		t.Errorf("single node scored %d cache hits, want 0", h)
	}
}

// TestFleetHopGuard: a request already carrying the hop header is
// served wherever it lands, even if this node's ring disagrees — one
// extra hop max, never a proxy loop.
func TestFleetHopGuard(t *testing.T) {
	_, nodes := newFleet(t, 2, Options{})
	remote := ownersHomedOn(t, nodes, nodes[1], 1)[0]
	registerOwner(t, nodes[1], remote)

	req, err := http.NewRequest("GET", nodes[0]+"/v1/owners/"+remote+"/receipts", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-"+remote)
	req.Header.Set("X-Wmxml-Fleet-Hop", "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hop-guarded request: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Wmxml-Node"); got != nodes[0] {
		t.Errorf("hop-guarded request served by %q, want the landing node %q", got, nodes[0])
	}
}

// TestFleetPeerDown: a dead home node surfaces as a JSON 502 from the
// entry node, not a hung request or an opaque transport error.
func TestFleetPeerDown(t *testing.T) {
	servers, nodes := newFleet(t, 2, Options{})
	remote := ownersHomedOn(t, nodes, nodes[1], 1)[0]
	registerOwner(t, nodes[1], remote)
	_ = servers

	// Kill node 1's listener by pointing its handler slot at a closed
	// server: simplest is to aim at an owner homed on a node we shut.
	// httptest servers are cleaned up at test end, so instead build a
	// 2-node fleet where one address never listens.
	reg := registry.NewMemory()
	live := httptest.NewServer(nil)
	defer live.Close()
	deadURL := "http://127.0.0.1:1" // reserved port, nothing listens
	s, err := New(Options{Registry: reg, FleetNodes: []string{live.URL, deadURL}, FleetSelf: live.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live.Config.Handler = s.Handler()

	downOwner := ownersHomedOn(t, []string{live.URL, deadURL}, deadURL, 1)[0]
	code, body, hdr := doAs(t, "k", "GET", live.URL+"/v1/owners/"+downOwner+"/receipts", nil)
	if code != http.StatusBadGateway {
		t.Fatalf("request homed on a dead peer = %d %s, want 502", code, body)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("502 body is not the JSON error envelope: %s", body)
	}
	if e.RequestID == "" || e.RequestID != hdr.Get("X-Request-Id") {
		t.Errorf("502 request_id %q, X-Request-Id header %q: want equal and set", e.RequestID, hdr.Get("X-Request-Id"))
	}
	// The peer's address and dial error are for the log, not the client.
	for _, leak := range []string{"127.0.0.1:1", "connection refused"} {
		if bytes.Contains(body, []byte(leak)) {
			t.Errorf("502 body leaks %q: %s", leak, body)
		}
	}
}

// TestFleetSelfValidation: a fleet config whose self address is not in
// the node list is refused at construction.
func TestFleetSelfValidation(t *testing.T) {
	_, err := New(Options{
		Registry:   registry.NewMemory(),
		FleetNodes: []string{"http://a:1", "http://b:2"},
		FleetSelf:  "http://c:3",
	})
	if err == nil {
		t.Fatal("New accepted FleetSelf outside FleetNodes")
	}
	_, err = New(Options{
		Registry:   registry.NewMemory(),
		FleetNodes: []string{"http://a:1", "ftp://b:2"},
		FleetSelf:  "http://a:1",
	})
	if err == nil {
		t.Fatal("New accepted a non-http fleet node")
	}
}
