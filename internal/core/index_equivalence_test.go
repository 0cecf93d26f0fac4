package core

// The acceptance contract of the index/planner layer: with or without
// the per-document index, every phase — embedding, query detection,
// blind detection — produces byte-identical output. These tests compare
// the two paths on marked, attacked and re-organized documents.

import (
	"math/rand"
	"reflect"
	"testing"

	"wmxml/internal/attack"
	"wmxml/internal/datagen"
	"wmxml/internal/index"
	"wmxml/internal/rewrite"
	"wmxml/internal/xmltree"
)

// embedBoth embeds the same watermark into two clones, one indexed and
// one not, and verifies the marked documents and query sets match
// bit-for-bit. It returns the indexed clone and its records.
func embedBoth(t *testing.T, ds *datagen.Dataset, cfg Config) (*xmltree.Node, []QueryRecord) {
	t.Helper()
	indexed := ds.Doc.Clone()
	walked := ds.Doc.Clone()
	cfgWalk := cfg
	cfgWalk.DisableIndex = true
	ri, err := Embed(indexed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Embed(walked, cfgWalk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ri.Records, rw.Records) {
		t.Fatalf("query sets differ: indexed %d records, walked %d", len(ri.Records), len(rw.Records))
	}
	si := xmltree.SerializeIndentString(indexed)
	sw := xmltree.SerializeIndentString(walked)
	if si != sw {
		t.Fatal("indexed and unindexed embedding produced different documents")
	}
	if ri.Carriers == 0 {
		t.Fatal("nothing embedded")
	}
	return indexed, ri.Records
}

// detectBoth compares DetectWithQueries with the index on and off.
func detectBoth(t *testing.T, doc *xmltree.Node, cfg Config, records []QueryRecord, rw Rewriter, what string) *DetectResult {
	t.Helper()
	cfgWalk := cfg
	cfgWalk.DisableIndex = true
	di, err := DetectWithQueries(doc, cfg, records, rw)
	if err != nil {
		t.Fatalf("%s indexed: %v", what, err)
	}
	dw, err := DetectWithQueries(doc, cfgWalk, records, rw)
	if err != nil {
		t.Fatalf("%s walked: %v", what, err)
	}
	if !reflect.DeepEqual(di, dw) {
		t.Fatalf("%s: indexed %+v != walked %+v", what, di, dw)
	}
	return di
}

func TestIndexedDetectEquivalence(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 300, Editors: 30, Publishers: 6, Seed: 2005})
	cfg := pubConfig(ds, "equiv-key", "equiv-mark")
	doc, records := embedBoth(t, ds, cfg)

	// Pristine marked document: full match.
	dr := detectBoth(t, doc, cfg, records, nil, "pristine")
	if !dr.Detected || dr.MatchFraction != 1.0 {
		t.Fatalf("pristine detection: %+v", dr.Result)
	}

	// Value alteration: vote noise, missed extractions.
	altered := doc.Clone()
	if _, err := (attack.ValueAlteration{Fraction: 0.3}).Apply(altered, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	detectBoth(t, altered, cfg, records, nil, "altered")

	// Reduction: query misses.
	reduced := doc.Clone()
	if _, err := (attack.Reduction{Scope: "db/book", KeepFraction: 0.5}).Apply(reduced, rand.New(rand.NewSource(8))); err != nil {
		t.Fatal(err)
	}
	red := detectBoth(t, reduced, cfg, records, nil, "reduced")
	if red.QueryMisses == 0 {
		t.Error("reduction should miss queries")
	}

	// Re-organization + rewriter: different document layout, rewritten
	// queries, rewrite errors counted identically.
	m := rewrite.PublicationsMapping()
	reorg, err := rewrite.Transform(doc, m)
	if err != nil {
		t.Fatal(err)
	}
	qrw, err := rewrite.NewQueryRewriter(m)
	if err != nil {
		t.Fatal(err)
	}
	detectBoth(t, reorg, cfg, records, qrw, "reorganized")
}

func TestIndexedBlindEquivalence(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 250, Editors: 25, Publishers: 5, Seed: 13})
	cfg := pubConfig(ds, "blind-key", "blind-mark")
	doc, _ := embedBoth(t, ds, cfg)
	cfgWalk := cfg
	cfgWalk.DisableIndex = true
	bi, err := DetectBlind(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := DetectBlind(doc, cfgWalk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bi, bw) {
		t.Fatalf("blind: indexed %+v != walked %+v", bi, bw)
	}
	if !bi.Detected {
		t.Fatal("blind detection failed")
	}
}

// A caller-provided index is reused across embed and detect; embedding
// must invalidate its value tables so detection reads post-embed
// values.
func TestSharedIndexAcrossEmbedAndDetect(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 150, Editors: 15, Publishers: 4, Seed: 21})
	cfg := pubConfig(ds, "shared-key", "shared-mark")
	doc := ds.Doc.Clone()
	ix := index.New(doc)
	er, err := EmbedIndexed(doc, cfg, ix)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileDecodePlan(cfg, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr := plan.Detect(doc, ix)
	if !dr.Detected || dr.MatchFraction != 1.0 || dr.QueryMisses != 0 {
		t.Fatalf("shared-index detection: %+v", dr)
	}
	// Must equal a detection with a fresh index.
	fresh, err := DetectWithQueries(doc, cfg, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dr, fresh) {
		t.Fatalf("shared %+v != fresh %+v", dr, fresh)
	}
}

// The positional (ablation) identity mode must also be equivalent: its
// queries use numeric predicates, exercising the planner's positional
// path.
func TestIndexedPositionalEquivalence(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 200, Seed: 17})
	cfg := pubConfig(ds, "pos-key", "pos-mark")
	cfg.Identity.Mode = 1 // identity.ModePositional
	doc, records := embedBoth(t, ds, cfg)
	dr := detectBoth(t, doc, cfg, records, nil, "positional")
	if !dr.Detected {
		t.Fatalf("positional detection: %+v", dr.Result)
	}
}
