package stream_test

// Cross-layer golden conformance corpus: ~8 small XML fixtures
// (namespaces, mixed content, CDATA, deep nesting, empty records,
// non-record preamble/trailer, quoting edge cases) with expected embed
// digests and detect verdicts, asserted identically through the core
// API, the streaming layer, wmxml.Pipeline and the server
// loopback — one table-driven suite so the entry points can never
// drift. (The CLI leg lives in cmd/wmxml/conformance_test.go and reads
// this same corpus and golden file.)
//
// Regenerate goldens after an intentional scheme change with:
//
//	WMXML_CONFORMANCE_UPDATE=1 go test ./internal/stream -run Conformance

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"wmxml"
	"wmxml/internal/config"
	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/registry"
	"wmxml/internal/server"
	"wmxml/internal/stream"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// The fixtures are deliberately tiny (a handful of records), so the
// config compensates: gamma 1 marks every unit and the one-byte mark
// keeps coverage above the detection floor — the corpus must pin
// *positive* verdicts, not just digests.
const (
	confKey   = "conformance-key"
	confMark  = "W"
	confGamma = 1
)

// conformanceFixtures is the corpus, one file per structural edge.
var conformanceFixtures = []string{
	"basic.xml",
	"namespaces.xml",
	"mixed.xml",
	"cdata.xml",
	"deep.xml",
	"empty.xml",
	"preamble.xml",
	"quotes.xml",
}

// expectation is the golden record for one fixture.
type expectation struct {
	EmbedSHA256   string  `json:"embed_sha256"`
	ReceiptSHA256 string  `json:"receipt_sha256"`
	Carriers      int     `json:"carriers"`
	ValuesWritten int     `json:"values_written"`
	Detected      bool    `json:"detected"`
	MatchFraction float64 `json:"match_fraction"`
	Coverage      float64 `json:"coverage"`
	QueriesRun    int     `json:"queries_run"`
	QueryMisses   int     `json:"query_misses"`
	BlindDetected bool    `json:"blind_detected"`
}

func conformanceDir() string { return filepath.Join("testdata", "conformance") }

// loadConformanceConfig builds the core config from the checked-in
// spec.
func loadConformanceConfig(t testing.TB) (core.Config, []byte) {
	t.Helper()
	specData, err := os.ReadFile(filepath.Join(conformanceDir(), "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := config.Parse(specData)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := spec.BuildSchema()
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Key:      []byte(confKey),
		Mark:     wmark.FromText(confMark),
		Gamma:    confGamma,
		Schema:   sch,
		Catalog:  spec.BuildCatalog(),
		Identity: identity.Options{Targets: spec.Targets},
	}, specData
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// coreReference runs the fixture through the core path and summarizes
// it as an expectation.
func coreReference(t *testing.T, src []byte, cfg core.Config) (expectation, []byte, []core.QueryRecord) {
	t.Helper()
	doc, err := xmltree.Parse(bytes.NewReader(src), xmltree.ParseOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.Embed(doc, cfg)
	if err != nil {
		t.Fatalf("embed: %v", err)
	}
	var out bytes.Buffer
	if err := xmltree.Serialize(&out, doc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	receipt, err := core.MarshalQuerySet(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := xmltree.Parse(bytes.NewReader(out.Bytes()), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DetectWithQueries(marked, cfg, res.Records, nil)
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	blind, err := core.DetectBlind(marked, cfg)
	if err != nil {
		t.Fatalf("blind detect: %v", err)
	}
	exp := expectation{
		EmbedSHA256:   sha(out.Bytes()),
		ReceiptSHA256: sha(receipt),
		Carriers:      res.Carriers,
		ValuesWritten: res.Embedded,
		Detected:      det.Detected,
		MatchFraction: det.MatchFraction,
		Coverage:      det.Coverage,
		QueriesRun:    det.QueriesRun,
		QueryMisses:   det.QueryMisses,
		BlindDetected: blind.Detected,
	}
	return exp, out.Bytes(), res.Records
}

// TestConformanceCorpus drives every fixture through the four library
// entry points and pins the results to the golden file.
func TestConformanceCorpus(t *testing.T) {
	cfg, specData := loadConformanceConfig(t)

	goldenPath := filepath.Join(conformanceDir(), "expected.json")
	var golden map[string]expectation
	update := os.Getenv("WMXML_CONFORMANCE_UPDATE") == "1"
	if update {
		golden = make(map[string]expectation)
	} else {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("golden file missing (run with WMXML_CONFORMANCE_UPDATE=1 to create): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	// One shared server over the spec-registered owner.
	reg := registry.NewMemory()
	srv, err := server.New(server.Options{Registry: reg, StreamChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ownerJSON, _ := json.Marshal(registry.Owner{ID: "conf", Key: confKey, Mark: confMark, Gamma: confGamma, Spec: specData})
	resp, err := http.Post(ts.URL+"/v1/owners", "application/json", bytes.NewReader(ownerJSON))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register owner: %d %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	for _, name := range conformanceFixtures {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(conformanceDir(), name))
			if err != nil {
				t.Fatal(err)
			}
			exp, markedBytes, records := coreReference(t, src, cfg)

			if update {
				golden[name] = exp
				return
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("fixture %s has no golden entry", name)
			}
			if exp != want {
				t.Errorf("core drifted from golden:\n got %+v\nwant %+v", exp, want)
			}

			// --- streaming layer ---
			var sOut bytes.Buffer
			sres, err := stream.Embed(context.Background(), bytes.NewReader(src), &sOut, cfg, stream.Options{ChunkSize: 2, Workers: 3})
			if err != nil {
				t.Fatalf("stream embed: %v", err)
			}
			if got := sha(sOut.Bytes()); got != want.EmbedSHA256 {
				t.Errorf("stream embed digest %s != golden %s", got[:12], want.EmbedSHA256[:12])
			}
			sreceipt, _ := core.MarshalQuerySet(sres.Records)
			if got := sha(sreceipt); got != want.ReceiptSHA256 {
				t.Errorf("stream receipt digest %s != golden %s", got[:12], want.ReceiptSHA256[:12])
			}
			sdet, _, err := stream.Detect(context.Background(), bytes.NewReader(markedBytes), cfg, records, nil, stream.Options{ChunkSize: 2})
			if err != nil {
				t.Fatalf("stream detect: %v", err)
			}
			if sdet.Detected != want.Detected || sdet.MatchFraction != want.MatchFraction ||
				sdet.Coverage != want.Coverage || sdet.QueriesRun != want.QueriesRun || sdet.QueryMisses != want.QueryMisses {
				t.Errorf("stream verdict drifted: %+v", sdet)
			}

			// --- wmxml.Pipeline (tree and reader jobs) ---
			psys, err := wmxml.New(wmxml.Options{
				Key: string(cfg.Key), MarkBits: cfg.Mark, Gamma: cfg.Gamma,
				Schema: cfg.Schema, Catalog: cfg.Catalog, Targets: cfg.Identity.Targets,
			})
			if err != nil {
				t.Fatal(err)
			}
			pl := wmxml.NewPipeline(psys, wmxml.PipelineOptions{Workers: 2})
			pdoc, err := xmltree.Parse(bytes.NewReader(src), xmltree.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pouts, err := pl.EmbedBatch(context.Background(), []*wmxml.Document{pdoc})
			if err != nil || pouts[0].Err != nil {
				t.Fatalf("pipeline embed: %v / %v", err, pouts[0].Err)
			}
			var pOut bytes.Buffer
			if err := xmltree.Serialize(&pOut, pdoc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
				t.Fatal(err)
			}
			if got := sha(pOut.Bytes()); got != want.EmbedSHA256 {
				t.Errorf("pipeline embed digest %s != golden %s", got[:12], want.EmbedSHA256[:12])
			}
			var prOut bytes.Buffer
			pr, _ := pl.EmbedReader(context.Background(), name, bytes.NewReader(src), &prOut, wmxml.StreamOptions{ChunkSize: 2})
			if pr.Err != nil {
				t.Fatalf("pipeline stream embed: %v", pr.Err)
			}
			if got := sha(prOut.Bytes()); got != want.EmbedSHA256 {
				t.Errorf("pipeline reader-embed digest %s != golden %s", got[:12], want.EmbedSHA256[:12])
			}
			pd, _ := pl.DetectReader(context.Background(), name, bytes.NewReader(markedBytes), records, nil, wmxml.StreamOptions{})
			if pd.Err != nil {
				t.Fatalf("pipeline stream detect: %v", pd.Err)
			}
			if pd.Detection.Detected != want.Detected || pd.Detection.MatchFraction != want.MatchFraction {
				t.Errorf("pipeline verdict drifted: %+v", pd.Detection)
			}

			// --- server loopback: buffered and streamed embeds ---
			for _, mode := range []string{"", "&mode=stream"} {
				req, err := http.NewRequest("POST", ts.URL+"/v1/embed?owner=conf"+mode, bytes.NewReader(src))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Authorization", "Bearer "+confKey)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("server embed mode=%q: %d %v %s", mode, resp.StatusCode, err, body)
				}
				if e := resp.Trailer.Get("X-Wmxml-Stream-Error"); e != "" {
					t.Fatalf("server stream error: %s", e)
				}
				if got := sha(body); got != want.EmbedSHA256 {
					t.Errorf("server embed mode=%q digest %s != golden %s", mode, got[:12], want.EmbedSHA256[:12])
				}
			}
			// Server streamed blind detect verdict.
			req, _ := http.NewRequest("POST", ts.URL+"/v1/detect?owner=conf&mode=stream-blind", bytes.NewReader(markedBytes))
			req.Header.Set("Authorization", "Bearer "+confKey)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dbody, _ := io.ReadAll(dresp.Body)
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("server stream-blind detect: %d %s", dresp.StatusCode, dbody)
			}
			var sv struct {
				Detected bool `json:"detected"`
			}
			if err := json.Unmarshal(dbody, &sv); err != nil {
				t.Fatal(err)
			}
			if sv.Detected != want.BlindDetected {
				t.Errorf("server blind verdict %v != golden %v", sv.Detected, want.BlindDetected)
			}
		})
	}

	if update {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s — re-run without WMXML_CONFORMANCE_UPDATE to assert", goldenPath)
	}
	_ = fmt.Sprint()
}
