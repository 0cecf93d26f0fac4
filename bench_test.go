package wmxml

// One benchmark per experiment of EXPERIMENTS.md (E1–E8, F1): each bench
// regenerates its table, so `go test -bench=.` reproduces the full
// evaluation. Micro-benchmarks for the substrate hot paths (parse,
// query, embed, detect) follow.
//
// Experiment benches report two custom metrics where meaningful:
// match (detection bit-match fraction) and usability.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wmxml/internal/experiments"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// benchParams keeps experiment benches fast enough to iterate while
// preserving the shapes (the committed EXPERIMENTS.md uses the full
// defaults via cmd/wmbench).
func benchParams() experiments.Params {
	return experiments.Params{Books: 150, Trials: 3, MarkBits: 24, Seed: 2005}
}

func benchTable(b *testing.B, run func(experiments.Params) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", tab.ID)
		}
	}
}

func BenchmarkE1CapacityUsability(b *testing.B)  { benchTable(b, experiments.E1Capacity) }
func BenchmarkE2Alteration(b *testing.B)         { benchTable(b, experiments.E2Alteration) }
func BenchmarkE3Reduction(b *testing.B)          { benchTable(b, experiments.E3Reduction) }
func BenchmarkE4Reorganization(b *testing.B)     { benchTable(b, experiments.E4Reorganization) }
func BenchmarkE5RedundancyRemoval(b *testing.B)  { benchTable(b, experiments.E5RedundancyRemoval) }
func BenchmarkE6RewriteFidelity(b *testing.B)    { benchTable(b, experiments.E6RewriteFidelity) }
func BenchmarkE7Frontier(b *testing.B)           { benchTable(b, experiments.E7Frontier) }
func BenchmarkE8FalsePositive(b *testing.B)      { benchTable(b, experiments.E8FalsePositive) }
func BenchmarkF1ReorgInfoPreserved(b *testing.B) { benchTable(b, experiments.F1InfoPreservation) }
func BenchmarkA1ChannelComparison(b *testing.B)  { benchTable(b, experiments.A1ChannelComparison) }
func BenchmarkA2TauSweep(b *testing.B)           { benchTable(b, experiments.A2TauSweep) }
func BenchmarkA3XiBitFlip(b *testing.B)          { benchTable(b, experiments.A3XiBitFlip) }
func BenchmarkS1Scalability(b *testing.B)        { benchTable(b, experiments.S1Scalability) }
func BenchmarkC1Collusion(b *testing.B)          { benchTable(b, experiments.C1Collusion) }

// --- substrate micro-benchmarks ---

func benchDataset(b *testing.B, books int) *Dataset {
	b.Helper()
	return PublicationsDataset(books, 2005)
}

func BenchmarkParseXML(b *testing.B) {
	ds := benchDataset(b, 1000)
	src := SerializeXMLString(ds.Doc)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseXMLString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeXML(b *testing.B) {
	ds := benchDataset(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := SerializeXMLString(ds.Doc); len(out) == 0 {
			b.Fatal("empty serialization")
		}
	}
}

func BenchmarkXPathKeyLookup(b *testing.B) {
	ds := benchDataset(b, 1000)
	// A representative identity query: key-predicated lookup.
	title := ds.Doc.Root().ChildElements()[500].FirstChildNamed("title").Text()
	q, err := CompileQuery("/db/book[title='" + title + "']/year")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if items := q.Select(ds.Doc); len(items) != 1 {
			b.Fatalf("items = %d", len(items))
		}
	}
}

func BenchmarkXPathDescendantScan(b *testing.B) {
	ds := benchDataset(b, 1000)
	q := xpath.MustCompile("//book[year>1995]/title")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if items := q.Select(ds.Doc); len(items) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkEmbed(b *testing.B) {
	ds := benchDataset(b, 1000)
	sys, err := New(Options{
		Key: "bench-key", Mark: "bench-mark-2005", Schema: ds.Schema,
		Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		doc := ds.Doc.Clone()
		b.StartTimer()
		if _, err := sys.Embed(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectWithQueries(b *testing.B) {
	ds := benchDataset(b, 1000)
	sys, err := New(Options{
		Key: "bench-key", Mark: "bench-mark-2005", Schema: ds.Schema,
		Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	doc := ds.Doc.Clone()
	receipt, err := sys.Embed(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := sys.Detect(doc, receipt.Records, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !det.Detected {
			b.Fatal("not detected")
		}
	}
}

func BenchmarkDetectBlind(b *testing.B) {
	ds := benchDataset(b, 1000)
	sys, err := New(Options{
		Key: "bench-key", Mark: "bench-mark-2005", Schema: ds.Schema,
		Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	doc := ds.Doc.Clone()
	if _, err := sys.Embed(doc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := sys.DetectBlind(doc)
		if err != nil {
			b.Fatal(err)
		}
		if !det.Detected {
			b.Fatal("not detected")
		}
	}
}

func BenchmarkReorganize(b *testing.B) {
	ds := benchDataset(b, 1000)
	m := Figure1Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reorganize(ds.Doc, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryRewrite(b *testing.B) {
	rw, err := NewRewriter(Figure1Mapping())
	if err != nil {
		b.Fatal(err)
	}
	q, err := CompileQuery("/db/book[title='Readings in Database Systems']/@publisher")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rw.RewriteQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUsabilityMeasure(b *testing.B) {
	ds := benchDataset(b, 500)
	meter, err := NewUsabilityMeter(ds.Doc, ds.Templates)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc := meter.Measure(ds.Doc, nil); sc.Usability() != 1.0 {
			b.Fatalf("usability = %.3f", sc.Usability())
		}
	}
}

func BenchmarkAlterationAttack(b *testing.B) {
	ds := benchDataset(b, 500)
	atk := NewAlterationAttack(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		doc := ds.Doc.Clone()
		r := rand.New(rand.NewSource(int64(i)))
		b.StartTimer()
		if _, err := atk.Apply(doc, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batch pipeline benchmarks ---
//
// BenchmarkPipelineEmbed and BenchmarkPipelineDetect compare worker
// counts on a multi-document corpus; on multi-core hardware the
// embedding and detection work is CPU-bound (HMAC selection per unit),
// so throughput scales near-linearly until the core count is reached.
// Run with `go test -bench 'Pipeline' -cpu 1,2,4,8` to sweep GOMAXPROCS
// alongside the worker count.

var pipelineWorkerSweep = []int{1, 2, 4, 8}

// pipelineBenchCorpus builds a corpus of distinct documents sharing one
// schema, plus the pipeline system. The mark is 8 characters (64 bits):
// at gamma 10 a 300-record document votes on enough of its bits to pass
// the 0.5 coverage floor, which a longer mark would not.
func pipelineBenchCorpus(b *testing.B, docs, books int) ([]*Document, *System) {
	b.Helper()
	base := PublicationsDataset(books, 1)
	sys, err := New(Options{
		Key: "bench-key", Mark: "bench-05", Schema: base.Schema,
		Catalog: base.Catalog, Targets: base.Targets, Gamma: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	corpus := make([]*Document, docs)
	for i := range corpus {
		corpus[i] = PublicationsDataset(books, int64(i+1)).Doc
	}
	return corpus, sys
}

func BenchmarkPipelineEmbed(b *testing.B) {
	corpus, sys := pipelineBenchCorpus(b, 16, 300)
	for _, w := range pipelineWorkerSweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pl := NewPipeline(sys, PipelineOptions{Workers: w})
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := make([]*Document, len(corpus))
				for j, d := range corpus {
					batch[j] = d.Clone()
				}
				b.StartTimer()
				outs, err := pl.EmbedBatch(context.Background(), batch)
				if err != nil {
					b.Fatal(err)
				}
				if s := SummarizeEmbedBatch(outs); s.Succeeded != len(batch) {
					b.Fatalf("summary = %+v", s)
				}
			}
		})
	}
}

func BenchmarkPipelineDetect(b *testing.B) {
	corpus, sys := pipelineBenchCorpus(b, 16, 300)
	pl4 := NewPipeline(sys, PipelineOptions{Workers: 4})
	embeds, err := pl4.EmbedBatch(context.Background(), corpus)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]DetectInput, len(corpus))
	for i, o := range embeds {
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		inputs[i] = DetectInput{Doc: corpus[i], Records: o.Receipt.Records}
	}
	for _, w := range pipelineWorkerSweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pl := NewPipeline(sys, PipelineOptions{Workers: w})
			for i := 0; i < b.N; i++ {
				outs, err := pl.DetectBatch(context.Background(), inputs)
				if err != nil {
					b.Fatal(err)
				}
				if s := SummarizeDetectBatch(outs); s.Detected != len(inputs) {
					b.Fatalf("summary = %+v", s)
				}
			}
		})
	}
}

// BenchmarkCoreConcurrency measures the per-document Concurrency option
// on one large document (single big doc, no batch parallelism).
func BenchmarkCoreConcurrency(b *testing.B) {
	ds := benchDataset(b, 3000)
	for _, conc := range pipelineWorkerSweep {
		b.Run(fmt.Sprintf("embed/concurrency=%d", conc), func(b *testing.B) {
			sys, err := New(Options{
				Key: "bench-key", Mark: "bench-mark-2005", Schema: ds.Schema,
				Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 10, Concurrency: conc,
			})
			if err != nil {
				b.Fatal(err)
			}
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

func BenchmarkDOMClone(b *testing.B) {
	ds := benchDataset(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cp := ds.Doc.Clone(); cp == nil {
			b.Fatal("nil clone")
		}
	}
}

func BenchmarkCanonicalize(b *testing.B) {
	ds := benchDataset(b, 500)
	opts := xmltree.CompareOptions{IgnoreChildOrder: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := xmltree.Canonical(ds.Doc, opts); !strings.HasPrefix(s, "#doc") {
			b.Fatal("bad canonical form")
		}
	}
}
