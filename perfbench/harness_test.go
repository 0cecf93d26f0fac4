package main

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wmxml/internal/xmltree"
)

// flaky is a stub workload whose every third op has a wrong output.
type flaky struct{ n atomic.Int64 }

func (*flaky) rounds() int        { return 1 }
func (*flaky) setup(*bench) error { return nil }
func (*flaky) op(*bench, *client, int64) error {
	time.Sleep(50 * time.Microsecond)
	return nil
}
func (f *flaky) check(*client) error {
	if f.n.Add(1)%3 == 0 {
		return errors.New("wrong verdict")
	}
	return nil
}
func (*flaky) prepareReplay(*bench) error { return nil }
func (*flaky) replay(*bench, *client)     {}

func TestRunCountsWrongOutputsAsFailures(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "wmxmld_doc_cache_hits_total 0\n")
	})
	clients := []*client{newClient(0, 1, 16), newClient(1, 1, 16)}
	b := &bench{h: h, clients: clients}
	p, err := b.run(&flaky{}, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != len(p.lat) || p.attempted < 3 {
		t.Fatalf("attempted %d ops with %d samples", p.attempted, len(p.lat))
	}
	misses := 0
	for _, l := range p.lat {
		if math.IsInf(l, 1) {
			misses++
		}
	}
	if p.failed != misses || p.failed != p.attempted/3 {
		t.Errorf("failed = %d, +Inf samples = %d, want both %d of %d", p.failed, misses, p.attempted/3, p.attempted)
	}
	if p.firstErr == nil || !strings.Contains(p.firstErr.Error(), "wrong verdict") {
		t.Errorf("first error = %v", p.firstErr)
	}
}

// rounded is a stub workload that keeps the server of each round.
type rounded struct {
	flaky
	benches []*bench
}

func (*rounded) rounds() int { return 3 }
func (w *rounded) setup(b *bench) error {
	w.benches = append(w.benches, b)
	return nil
}
func (*rounded) check(*client) error { return nil }

func TestRunRoundsKeepsOnlyTheLastServer(t *testing.T) {
	w := &rounded{}
	clients := []*client{newClient(0, 1, 1<<12), newClient(1, 1, 1<<12)}
	b, plain, setups, opens, err := runRounds(w, clients, t.TempDir(), 90*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if len(setups) != 3 || len(opens) != 3 || len(w.benches) != 3 || w.benches[2] != b {
		t.Fatalf("%d set-ups, %d opens, %d servers; want 3 each, the last returned", len(setups), len(opens), len(w.benches))
	}
	for k, old := range w.benches[:2] {
		if err := old.file.Close(); err == nil {
			t.Errorf("round %d's registry was left open", k)
		}
	}
	for _, c := range clients {
		if c.h == nil {
			t.Error("a client is not pointed at the last server")
		}
	}
	if _, err := b.scrape(); err != nil {
		t.Errorf("last server: %v", err)
	}
	if plain.attempted == 0 || plain.failed != 0 || len(plain.lat) != plain.attempted {
		t.Errorf("merged phase: attempted %d, failed %d, %d latencies", plain.attempted, plain.failed, len(plain.lat))
	}
}

func TestChecksRejectWrongOutputs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w       workload
		out     int // which reply the check reads
		code    int
		body    string
		trailer string // X-Wmxml-Stream-Error
		ok      bool
	}{
		{"detect-warm", &detectWarm{}, 0, 200, `{"detected":true,"receipts_tried":1,"cache_hit":true}`, "", true},
		{"detect-warm cache miss", &detectWarm{}, 0, 200, `{"detected":true,"receipts_tried":1,"cache_hit":false}`, "", false},
		{"detect-warm not detected", &detectWarm{}, 0, 200, `{"detected":false,"receipts_tried":1,"cache_hit":true}`, "", false},
		{"detect-warm two receipts", &detectWarm{}, 0, 200, `{"detected":true,"receipts_tried":2,"cache_hit":true}`, "", false},
		{"detect-warm error status", &detectWarm{}, 0, 503, `{"error":"server busy"}`, "", false},
		{"ingest", &ingest{}, 1, 200, `{"detected":true,"receipts_tried":1,"cache_hit":false}`, "", true},
		{"ingest cache hit", &ingest{}, 1, 200, `{"detected":true,"receipts_tried":1,"cache_hit":true}`, "", false},
		{"ingest not detected", &ingest{}, 1, 200, `{"detected":false,"receipts_tried":1}`, "", false},
		{"stream", &streamOps{}, 1, 200, `{"detected":true,"chunks":40}`, "", true},
		{"stream one chunk", &streamOps{}, 1, 200, `{"detected":true,"chunks":1}`, "", false},
		{"stream error trailer", &streamOps{}, 1, 200, `{"detected":true,"chunks":40}`, "truncated", false},
		{"stream bad json", &streamOps{}, 1, 200, `{"detected":`, "", false},
	} {
		c := newClient(0, 1, 1)
		out := c.out[tc.out]
		out.code = tc.code
		out.body.WriteString(tc.body)
		if tc.trailer != "" {
			out.hdr.Set("X-Wmxml-Stream-Error", tc.trailer)
		}
		if err := tc.w.check(c); (err == nil) != tc.ok {
			t.Errorf("%s: check error %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

func TestNonceChangesOnlyTheAuthor(t *testing.T) {
	doc, at, err := pubsDoc(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := len(doc)
	setNonce(doc, at, 0xabc)
	if len(doc) != size {
		t.Fatalf("nonce changed the body size")
	}
	tree, err := xmltree.ParseBytes(doc, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	authors := xmltree.DescendantsNamed(tree, "author")
	if got := authors[0].Children[0].Value; got != "nonce-0000000000000abc" {
		t.Errorf("first author = %q", got)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "verify"},
		{"--workload", "ingest", "--seconds", "0"},
		{"--workload", "ingest", "--trace", "2"},
		{"--workload", "ingest", "extra"},
		{"--no-such-flag"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
