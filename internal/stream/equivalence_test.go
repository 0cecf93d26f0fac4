package stream

// The headline contract of the streaming layer: on every document where
// both paths run, the streamed output — marked bytes, receipt bytes,
// detection vote tables — is identical to the in-memory path's. These
// tests check it property-style over the dataset generators (every
// preset × sizes × chunk sizes × worker counts), and FuzzStreamEmbed
// lets the fuzzer drive the parameter space further.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/identity"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// cfgFor builds a core config over a dataset.
func cfgFor(ds *datagen.Dataset, key, mark string, gamma int) core.Config {
	return core.Config{
		Key:      []byte(key),
		Mark:     wmark.FromText(mark),
		Gamma:    gamma,
		Schema:   ds.Schema,
		Catalog:  ds.Catalog,
		Identity: identity.Options{Targets: ds.Targets},
	}
}

// inMemoryEmbed runs the reference path: parse whole, embed, serialize
// with the streaming layer's default options.
func inMemoryEmbed(t testing.TB, src []byte, cfg core.Config) (out []byte, res *core.EmbedResult) {
	t.Helper()
	doc, err := xmltree.Parse(bytes.NewReader(src), xmltree.ParseOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err = core.Embed(doc, cfg)
	if err != nil {
		t.Fatalf("embed: %v", err)
	}
	var sb bytes.Buffer
	if err := xmltree.Serialize(&sb, doc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sb.Bytes(), res
}

// marshal renders a receipt deterministically for byte comparison.
func marshal(t testing.TB, recs []core.QueryRecord) []byte {
	t.Helper()
	data, err := core.MarshalQuerySet(recs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// votesEqual compares two vote tables cell by cell.
func votesEqual(a, b *wmark.Votes) bool {
	if a.Len() != b.Len() || a.Total() != b.Total() || a.Misses() != b.Misses() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ao, az := a.Counts(i)
		bo, bz := b.Counts(i)
		if ao != bo || az != bz {
			return false
		}
	}
	return true
}

// checkEquivalence asserts the full streamed-vs-in-memory contract for
// one document + config + streaming options.
func checkEquivalence(t *testing.T, src []byte, cfg core.Config, opts Options) {
	t.Helper()
	wantOut, wantRes := inMemoryEmbed(t, src, cfg)

	var got bytes.Buffer
	sres, err := Embed(context.Background(), bytes.NewReader(src), &got, cfg, opts)
	if err != nil {
		t.Fatalf("stream embed: %v", err)
	}
	if !sres.Stats.Streamed {
		t.Fatalf("expected the chunked path, fell back: %s", sres.Stats.FallbackReason)
	}
	if !bytes.Equal(got.Bytes(), wantOut) {
		t.Fatalf("streamed document differs from in-memory embed\nstream %d bytes, memory %d bytes\nfirst divergence at %d",
			got.Len(), len(wantOut), firstDiff(got.Bytes(), wantOut))
	}
	if gotQ, wantQ := marshal(t, sres.Records), marshal(t, wantRes.Records); !bytes.Equal(gotQ, wantQ) {
		t.Fatalf("streamed receipt differs from in-memory receipt\n got %d records\nwant %d records", len(sres.Records), len(wantRes.Records))
	}
	if sres.Carriers != wantRes.Carriers || sres.Embedded != wantRes.Embedded || sres.Unembeddable != wantRes.Unembeddable {
		t.Fatalf("summary drift: got carriers=%d embedded=%d unembeddable=%d, want %d/%d/%d",
			sres.Carriers, sres.Embedded, sres.Unembeddable, wantRes.Carriers, wantRes.Embedded, wantRes.Unembeddable)
	}

	// Detection: the streamed decode of the marked document must produce
	// the exact vote table (and counts) of the in-memory decode — with
	// queries and blind.
	markedDoc, err := xmltree.Parse(bytes.NewReader(wantOut), xmltree.ParseOptions{})
	if err != nil {
		t.Fatalf("reparse marked: %v", err)
	}
	plan, err := core.CompileDecodePlan(cfg, wantRes.Records, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	wantDec := plan.Decode(markedDoc, nil)
	gotDec, err := Decode(context.Background(), bytes.NewReader(wantOut), plan, opts)
	if err != nil {
		t.Fatalf("stream decode: %v", err)
	}
	if !gotDec.Stats.Streamed {
		t.Fatalf("decode fell back: %s", gotDec.Stats.FallbackReason)
	}
	if !votesEqual(gotDec.Votes, wantDec.Votes) {
		t.Fatalf("queries-mode votes differ: stream total=%d misses=%d, memory total=%d misses=%d",
			gotDec.Votes.Total(), gotDec.Votes.Misses(), wantDec.Votes.Total(), wantDec.Votes.Misses())
	}
	if gotDec.QueriesRun != wantDec.QueriesRun || gotDec.QueryMisses != wantDec.QueryMisses || gotDec.RewriteErrors != wantDec.RewriteErrors {
		t.Fatalf("queries-mode counts differ: got run=%d miss=%d rw=%d, want %d/%d/%d",
			gotDec.QueriesRun, gotDec.QueryMisses, gotDec.RewriteErrors,
			wantDec.QueriesRun, wantDec.QueryMisses, wantDec.RewriteErrors)
	}

	blind, err := core.CompileBlindPlan(cfg)
	if err != nil {
		t.Fatalf("blind decode: %v", err)
	}
	wantBlind := blind.Decode(markedDoc, nil)
	gotBlind, err := Decode(context.Background(), bytes.NewReader(wantOut), blind, opts)
	if err != nil {
		t.Fatalf("stream blind decode: %v", err)
	}
	if !votesEqual(gotBlind.Votes, wantBlind.Votes) {
		t.Fatalf("blind votes differ: stream total=%d misses=%d, memory total=%d misses=%d",
			gotBlind.Votes.Total(), gotBlind.Votes.Misses(), wantBlind.Votes.Total(), wantBlind.Votes.Misses())
	}
	if gotBlind.QueriesRun != wantBlind.QueriesRun || gotBlind.QueryMisses != wantBlind.QueryMisses {
		t.Fatalf("blind counts differ: got run=%d miss=%d, want %d/%d",
			gotBlind.QueriesRun, gotBlind.QueryMisses, wantBlind.QueriesRun, wantBlind.QueryMisses)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// serializeDataset renders a dataset's document the way files on disk
// look (indented, declared).
func serializeDataset(t testing.TB, ds *datagen.Dataset) []byte {
	t.Helper()
	var sb bytes.Buffer
	if err := xmltree.Serialize(&sb, ds.Doc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes()
}

// TestStreamEquivalenceProperty sweeps presets × sizes × chunk sizes ×
// workers, asserting the full contract on each combination.
func TestStreamEquivalenceProperty(t *testing.T) {
	presets := []string{"pubs", "jobs", "library", "nested"}
	sizes := []int{1, 7, 60, 240}
	chunks := []int{1, 3, 50, 1000}
	workers := []int{1, 4}
	for _, preset := range presets {
		for i, size := range sizes {
			ds, err := datagen.Preset(preset, size, int64(41*i+7))
			if err != nil {
				t.Fatal(err)
			}
			src := serializeDataset(t, ds)
			cfg := cfgFor(ds, "k-"+preset, "(C) stream equivalence", 3)
			for _, cs := range chunks {
				for _, w := range workers {
					name := fmt.Sprintf("%s/size=%d/chunk=%d/workers=%d", preset, size, cs, w)
					t.Run(name, func(t *testing.T) {
						checkEquivalence(t, src, cfg, Options{ChunkSize: cs, Workers: w})
					})
				}
			}
		}
	}
}

// TestStreamFallbacks verifies each non-chunkable configuration routes
// through the in-memory path and still produces identical output.
func TestStreamFallbacks(t *testing.T) {
	ds, err := datagen.Preset("pubs", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := serializeDataset(t, ds)

	t.Run("positional", func(t *testing.T) {
		cfg := cfgFor(ds, "k", "(C) fb", 2)
		cfg.Identity.Mode = identity.ModePositional
		wantOut, wantRes := inMemoryEmbed(t, src, cfg)
		var got bytes.Buffer
		sres, err := Embed(context.Background(), bytes.NewReader(src), &got, cfg, Options{ChunkSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if sres.Stats.Streamed || !strings.Contains(sres.Stats.FallbackReason, "positional") {
			t.Fatalf("expected positional fallback, got %+v", sres.Stats)
		}
		if !bytes.Equal(got.Bytes(), wantOut) {
			t.Fatal("fallback output differs")
		}
		if !bytes.Equal(marshal(t, sres.Records), marshal(t, wantRes.Records)) {
			t.Fatal("fallback receipt differs")
		}
	})

	t.Run("validate-input", func(t *testing.T) {
		cfg := cfgFor(ds, "k", "(C) fb", 2)
		cfg.ValidateInput = true
		var got bytes.Buffer
		sres, err := Embed(context.Background(), bytes.NewReader(src), &got, cfg, Options{ChunkSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if sres.Stats.Streamed || !strings.Contains(sres.Stats.FallbackReason, "ValidateInput") {
			t.Fatalf("expected ValidateInput fallback, got %+v", sres.Stats)
		}
	})

	t.Run("positional-receipt-queries", func(t *testing.T) {
		cfg := cfgFor(ds, "k", "(C) fb", 2)
		// A hand-written positional record must force the queries-mode
		// fallback: /db/book[2]/year selects a different book per chunk.
		recs := []core.QueryRecord{{ID: "pos\x1fdb/book\x1fyear\x1f2", Query: "/db/book[2]/year", Type: "integer", Target: "db/book/year"}}
		plan, err := core.CompileDecodePlan(cfg, recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(context.Background(), bytes.NewReader(src), plan, Options{ChunkSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Stats.Streamed || !strings.Contains(dec.Stats.FallbackReason, "chunk-local") {
			t.Fatalf("expected chunk-local fallback, got %+v", dec.Stats)
		}
		// And the fallback result equals the in-memory one.
		doc, err := xmltree.Parse(bytes.NewReader(src), xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Decode(doc, nil)
		if !votesEqual(dec.Votes, want.Votes) {
			t.Fatal("fallback votes differ")
		}
	})
}

// FuzzStreamEmbed drives the equivalence property from fuzzed
// parameters: dataset choice, size, seed, gamma, chunking and worker
// geometry. The checked-in corpus (testdata/fuzz) pins the interesting
// shapes; `go test -fuzz FuzzStreamEmbed` explores further.
func FuzzStreamEmbed(f *testing.F) {
	f.Add(uint8(0), uint16(30), int64(1), uint8(3), uint16(4), uint8(2))
	f.Add(uint8(1), uint16(1), int64(9), uint8(1), uint16(1), uint8(1))
	f.Add(uint8(2), uint16(120), int64(5), uint8(7), uint16(64), uint8(4))
	f.Add(uint8(3), uint16(55), int64(3), uint8(2), uint16(9), uint8(3))
	f.Fuzz(func(t *testing.T, preset uint8, size uint16, seed int64, gamma uint8, chunk uint16, workers uint8) {
		names := []string{"pubs", "jobs", "library", "nested"}
		ds, err := datagen.Preset(names[int(preset)%len(names)], int(size%500)+1, seed)
		if err != nil {
			t.Fatal(err)
		}
		src := serializeDataset(t, ds)
		cfg := cfgFor(ds, fmt.Sprintf("fuzz-key-%d", seed), "(C) fuzz", int(gamma%16)+1)
		opts := Options{ChunkSize: int(chunk%300) + 1, Workers: int(workers%6) + 1}
		checkEquivalence(t, src, cfg, opts)
	})
}
