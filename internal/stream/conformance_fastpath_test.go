package stream_test

// The warm-path equivalence leg of the conformance corpus. The
// fast-parse tokenizer (interned names, slab nodes), the scratch-
// buffered xpath evaluator, the compiled decode plans and the pooled
// vote tables are all performance machinery with one shared contract:
// results must be byte-identical to the plain path on every fixture.
// This file pins that contract at two levels — library (fast parse +
// plan decode vs strict parse + index-disabled tree-walking decode)
// and server (concurrent warm detects sharing the document cache, the
// plan cache, the scratch pools and the name interner; run under
// -race this doubles as the concurrency-safety proof).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wmxml/internal/core"
	"wmxml/internal/registry"
	"wmxml/internal/server"
	"wmxml/internal/xmltree"
)

// sameVoteTables compares two decode results bit by bit.
func sameVoteTables(t *testing.T, label string, got, want *core.DecodeResult) {
	t.Helper()
	if got.Votes.Len() != want.Votes.Len() || got.Votes.Total() != want.Votes.Total() ||
		got.Votes.Misses() != want.Votes.Misses() ||
		got.QueriesRun != want.QueriesRun || got.QueryMisses != want.QueryMisses ||
		got.RewriteErrors != want.RewriteErrors {
		t.Fatalf("%s: vote table shape drifted: got %+v votes(len=%d total=%d misses=%d)",
			label, got, got.Votes.Len(), got.Votes.Total(), got.Votes.Misses())
	}
	for i := 0; i < want.Votes.Len(); i++ {
		o, z := got.Votes.Counts(i)
		wo, wz := want.Votes.Counts(i)
		if o != wo || z != wz {
			t.Fatalf("%s: bit %d votes %d/%d, want %d/%d", label, i, o, z, wo, wz)
		}
	}
}

// TestConformanceFastPathEquivalence proves, fixture by fixture, that
// the fast machinery changes nothing observable: embeds over
// ParseBytes-parsed trees produce the same bytes and receipts as over
// strictly parsed trees, and a compiled plan decoding through the
// index and scratch buffers produces the same votes and verdict as the
// index-disabled tree-walking decode.
func TestConformanceFastPathEquivalence(t *testing.T) {
	cfg, _ := loadConformanceConfig(t)
	for _, name := range conformanceFixtures {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(conformanceDir(), name))
			if err != nil {
				t.Fatal(err)
			}

			// Embed equivalence across parsers.
			fastDoc, err := xmltree.ParseBytes(src, xmltree.ParseOptions{})
			if err != nil {
				t.Fatalf("fast parse: %v", err)
			}
			refDoc, err := xmltree.Parse(bytes.NewReader(src), xmltree.ParseOptions{})
			if err != nil {
				t.Fatalf("strict parse: %v", err)
			}
			fastRes, err := core.Embed(fastDoc, cfg)
			if err != nil {
				t.Fatalf("embed over fast parse: %v", err)
			}
			refRes, err := core.Embed(refDoc, cfg)
			if err != nil {
				t.Fatalf("embed over strict parse: %v", err)
			}
			var fastOut, refOut bytes.Buffer
			if err := xmltree.Serialize(&fastOut, fastDoc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
				t.Fatal(err)
			}
			if err := xmltree.Serialize(&refOut, refDoc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fastOut.Bytes(), refOut.Bytes()) {
				t.Errorf("marked bytes differ between parsers")
			}
			fastReceipt, _ := core.MarshalQuerySet(fastRes.Records)
			refReceipt, _ := core.MarshalQuerySet(refRes.Records)
			if !bytes.Equal(fastReceipt, refReceipt) {
				t.Errorf("receipts differ between parsers")
			}

			// Decode equivalence: compiled plan + index + scratch vs the
			// index-disabled tree walker, over a fast-parsed suspect.
			marked, err := xmltree.ParseBytes(fastOut.Bytes(), xmltree.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			refMarked, err := xmltree.Parse(bytes.NewReader(refOut.Bytes()), xmltree.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			baseCfg := cfg
			baseCfg.DisableIndex = true
			basePlan, err := core.CompileDecodePlan(baseCfg, refRes.Records, nil)
			if err != nil {
				t.Fatal(err)
			}
			baseline := basePlan.Decode(refMarked, nil)
			plan, err := core.CompileDecodePlan(cfg, fastRes.Records, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Twice through the same plan: the second run reuses pooled
			// scratch state primed by the first.
			for i := 0; i < 2; i++ {
				sameVoteTables(t, name, plan.Decode(marked, nil), baseline)
			}
			det := plan.Detect(marked, nil)
			base := core.ScoreDecode(baseline, baseCfg)
			if det.Detected != base.Detected || det.MatchFraction != base.MatchFraction || det.Coverage != base.Coverage {
				t.Errorf("verdicts drifted: plan %+v vs baseline %+v", det.Result, base.Result)
			}
		})
	}
}

// TestConformanceConcurrentWarmDetect hammers one server with
// concurrent warm detects over every fixture: all requests share the
// document cache, the decode-plan cache, the scratch and vote pools
// and the global name interner. Verdicts must stay pinned to the
// goldens throughout, and the plan cache must actually serve hits.
func TestConformanceConcurrentWarmDetect(t *testing.T) {
	_, specData := loadConformanceConfig(t)
	golden := map[string]expectation{}
	gdata, err := os.ReadFile(filepath.Join(conformanceDir(), "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gdata, &golden); err != nil {
		t.Fatal(err)
	}

	reg := registry.NewMemory()
	srv, err := server.New(server.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do := func(path string, body []byte) ([]byte, int) {
		req, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+confKey)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil, 0
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return data, resp.StatusCode
	}
	ownerJSON, _ := json.Marshal(registry.Owner{ID: "conf", Key: confKey, Mark: confMark, Gamma: confGamma, Spec: specData})
	if _, code := do("/v1/owners", ownerJSON); code != http.StatusOK {
		t.Fatal("register owner failed")
	}

	// One embed per fixture seeds the receipts; the marked bytes are
	// the suspects the workers will hammer.
	suspects := make(map[string][]byte, len(conformanceFixtures))
	for _, name := range conformanceFixtures {
		src, err := os.ReadFile(filepath.Join(conformanceDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		marked, code := do("/v1/embed?owner=conf&doc="+name, src)
		if code != http.StatusOK {
			t.Fatalf("embed %s: %d %s", name, code, marked)
		}
		suspects[name] = marked
	}

	const goroutines, reps = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				for _, name := range conformanceFixtures {
					body, code := do("/v1/detect?owner=conf", suspects[name])
					if code != http.StatusOK {
						t.Errorf("detect %s: %d %s", name, code, body)
						return
					}
					var v struct {
						Detected      bool    `json:"detected"`
						MatchFraction float64 `json:"match_fraction"`
					}
					if err := json.Unmarshal(body, &v); err != nil {
						t.Error(err)
						return
					}
					want := golden[name]
					if v.Detected != want.Detected || v.MatchFraction != want.MatchFraction {
						t.Errorf("%s verdict drifted under concurrency: got %v/%.4f want %v/%.4f",
							name, v.Detected, v.MatchFraction, want.Detected, want.MatchFraction)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _ := srv.PlanCacheStats()
	if hits == 0 {
		t.Errorf("plan cache served no hits across %d warm detects (misses=%d)", goroutines*reps*len(conformanceFixtures), misses)
	}
}
