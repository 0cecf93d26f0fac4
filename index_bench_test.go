package wmxml

// Benchmarks for the index layer. BenchmarkDetect10k is the
// acceptance benchmark: indexed vs unindexed DetectWithQueries on a
// 10k-record document (the indexed path must be >= 5x faster; measured
// results live in README.md).

import (
	"fmt"
	"testing"

	"wmxml/internal/index"
)

// detectBenchSetup embeds a mark into a books-sized document and returns
// the system pair (indexed / unindexed), the marked document and Q.
func detectBenchSetup(b *testing.B, books int) (fast, slow *System, doc *Document, records []QueryRecord) {
	b.Helper()
	ds := PublicationsDataset(books, 2005)
	mk := func(disable bool) *System {
		sys, err := New(Options{
			Key: "bench-key", Mark: "bench-mark-2005", Schema: ds.Schema,
			Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 10, DisableIndex: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	fast, slow = mk(false), mk(true)
	doc = ds.Doc.Clone()
	receipt, err := fast.Embed(doc)
	if err != nil {
		b.Fatal(err)
	}
	return fast, slow, doc, receipt.Records
}

func benchDetect(b *testing.B, sys *System, doc *Document, records []QueryRecord) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := sys.Detect(doc, records, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !det.Detected {
			b.Fatal("not detected")
		}
	}
}

// BenchmarkDetect10k compares detection cost on a 10k-record document:
// "indexed" resolves each identity query through the document index,
// "unindexed" walks the DOM from the root for each query.
func BenchmarkDetect10k(b *testing.B) {
	fast, slow, doc, records := detectBenchSetup(b, 10000)
	b.Run("indexed", func(b *testing.B) { benchDetect(b, fast, doc, records) })
	b.Run("unindexed", func(b *testing.B) { benchDetect(b, slow, doc, records) })
}

// BenchmarkDetectScaling shows how the two paths diverge with document
// size (the unindexed path is quadratic in records, the indexed one
// near-linear).
func BenchmarkDetectScaling(b *testing.B) {
	for _, books := range []int{1000, 4000, 10000} {
		fast, slow, doc, records := detectBenchSetup(b, books)
		b.Run(fmt.Sprintf("indexed/books=%d", books), func(b *testing.B) { benchDetect(b, fast, doc, records) })
		b.Run(fmt.Sprintf("unindexed/books=%d", books), func(b *testing.B) { benchDetect(b, slow, doc, records) })
	}
}

// BenchmarkIndexBuild10k isolates the one-time indexing pass the fast
// path pays per document.
func BenchmarkIndexBuild10k(b *testing.B) {
	ds := PublicationsDataset(10000, 2005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.New(ds.Doc)
		if ix.Stats().Elements == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkIndexedKeyLookup is BenchmarkXPathKeyLookup through the
// index: one identity query against a 1000-record document.
func BenchmarkIndexedKeyLookup(b *testing.B) {
	ds := PublicationsDataset(1000, 2005)
	title := ds.Doc.Root().ChildElements()[500].FirstChildNamed("title").Text()
	q, err := CompileQuery("/db/book[title='" + title + "']/year")
	if err != nil {
		b.Fatal(err)
	}
	ix := NewDocumentIndex(ds.Doc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if items := q.SelectIndexed(ds.Doc, ix); len(items) != 1 {
			b.Fatalf("items = %d", len(items))
		}
	}
}

// BenchmarkEmbed10k measures the encoder side with and without the
// index (enumeration is index-accelerated; value writing dominates).
func BenchmarkEmbed10k(b *testing.B) {
	ds := PublicationsDataset(10000, 2005)
	for _, disable := range []bool{false, true} {
		name := "indexed"
		if disable {
			name = "unindexed"
		}
		sys, err := New(Options{
			Key: "bench-key", Mark: "bench-mark-2005", Schema: ds.Schema,
			Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 10, DisableIndex: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				doc := ds.Doc.Clone()
				b.StartTimer()
				if _, err := sys.Embed(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
