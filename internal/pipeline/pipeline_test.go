// Package pipeline_test holds the batch-layer tests of wmxml.Pipeline:
// equivalence with the per-document System calls, isolation of failing
// and panicking documents, cancellation, the Seq streams and post-embed
// verification. The batch layer itself is the root package's
// pipeline.go; this directory holds only tests, which drive the public
// API as an external client would.
package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wmxml"
)

// corpus builds n publication documents of one schema with distinct
// content (different seeds), plus the shared System options.
func corpus(t testing.TB, n, books int) ([]*wmxml.Document, wmxml.Options) {
	t.Helper()
	base := wmxml.PublicationsDataset(books, 1)
	opts := wmxml.Options{
		Key:      "pipeline-key",
		MarkBits: wmxml.RandomMark("pipeline-mark", 24),
		Gamma:    2,
		Schema:   base.Schema,
		Catalog:  base.Catalog,
		Targets:  base.Targets,
	}
	docs := make([]*wmxml.Document, n)
	for i := range docs {
		docs[i] = wmxml.PublicationsDataset(books, int64(i+1)).Doc
	}
	return docs, opts
}

func newSystem(t testing.TB, opts wmxml.Options) *wmxml.System {
	t.Helper()
	sys, err := wmxml.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEmbedAllMatchesSequential: the pooled batch must produce, for
// every document, exactly the marked tree and query set a standalone
// System.Embed produces.
func TestEmbedAllMatchesSequential(t *testing.T) {
	docs, opts := corpus(t, 12, 60)
	sys := newSystem(t, opts)
	wantXML := make([]string, len(docs))
	wantRecs := make([][]wmxml.QueryRecord, len(docs))
	for i, doc := range docs {
		clone := doc.Clone()
		rec, err := sys.Embed(clone)
		if err != nil {
			t.Fatal(err)
		}
		wantXML[i] = wmxml.SerializeXMLString(clone)
		wantRecs[i] = rec.Records
	}

	pl := wmxml.NewPipeline(sys, wmxml.PipelineOptions{Workers: 8})
	outs, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(docs) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(docs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("doc %s: %v", o.ID, o.Err)
		}
		if o.Index != i || o.ID != fmt.Sprintf("#%d", i) {
			t.Errorf("outcome %d misordered: ID=%s Index=%d", i, o.ID, o.Index)
		}
		if got := wmxml.SerializeXMLString(docs[i]); got != wantXML[i] {
			t.Errorf("doc %s: marked tree differs from sequential embed", o.ID)
		}
		if !reflect.DeepEqual(o.Receipt.Records, wantRecs[i]) {
			t.Errorf("doc %s: query set differs from sequential embed", o.ID)
		}
	}
	sum := wmxml.SummarizeEmbedBatch(outs)
	if sum.Succeeded != len(docs) || sum.Failed != 0 || sum.Skipped != 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Carriers == 0 || sum.ValuesWritten == 0 {
		t.Errorf("summary has empty capacity: %+v", sum)
	}
}

// TestDetectAllBothModes runs query-based and blind detection through
// the pool and checks every document detects with a perfect match.
func TestDetectAllBothModes(t *testing.T) {
	docs, opts := corpus(t, 10, 60)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 6})
	embeds, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}

	withQ := make([]wmxml.DetectInput, len(docs))
	blind := make([]wmxml.DetectInput, len(docs))
	for i, doc := range docs {
		withQ[i] = wmxml.DetectInput{Doc: doc, Records: embeds[i].Receipt.Records}
		blind[i] = wmxml.DetectInput{Doc: doc}
	}
	for name, batch := range map[string][]wmxml.DetectInput{"queries": withQ, "blind": blind} {
		outs, err := pl.DetectBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				t.Fatalf("%s %s: %v", name, o.ID, o.Err)
			}
			if !o.Detection.Detected || o.Detection.MatchFraction != 1.0 {
				t.Errorf("%s %s: detected=%v match=%.3f", name, o.ID, o.Detection.Detected, o.Detection.MatchFraction)
			}
		}
		sum := wmxml.SummarizeDetectBatch(outs)
		if sum.Detected != len(batch) || sum.MeanMatch != 1.0 {
			t.Errorf("%s summary = %+v", name, sum)
		}
	}
}

// TestErrorIsolation poisons two documents in a batch (one nil, one
// failing schema validation) and requires every other document to
// embed.
func TestErrorIsolation(t *testing.T) {
	docs, opts := corpus(t, 8, 40)
	opts.ValidateInput = true
	bad, err := wmxml.ParseXMLString("<not><the/><schema/></not>")
	if err != nil {
		t.Fatal(err)
	}
	docs[2], docs[5] = bad, nil

	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 4})
	outs, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		switch i {
		case 2, 5:
			if o.Err == nil || o.Receipt != nil {
				t.Errorf("doc %s: err=%v receipt=%v, want a failure", o.ID, o.Err, o.Receipt != nil)
			}
		default:
			if o.Err != nil {
				t.Errorf("doc %s: %v", o.ID, o.Err)
			}
		}
	}
	sum := wmxml.SummarizeEmbedBatch(outs)
	if sum.Succeeded != 6 || sum.Failed != 2 || sum.Skipped != 0 {
		t.Errorf("summary = %+v", sum)
	}
}

// panicRewriter panics inside detection, standing for a faulty plug-in.
type panicRewriter struct{}

func (panicRewriter) RewriteQuery(*wmxml.Query) (*wmxml.Query, error) { panic("boom") }

// TestPanicIsolation: a panicking Rewriter fails only its own document.
func TestPanicIsolation(t *testing.T) {
	docs, opts := corpus(t, 4, 30)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 2})
	embeds, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]wmxml.DetectInput, len(docs))
	for i, doc := range docs {
		inputs[i] = wmxml.DetectInput{Doc: doc, Records: embeds[i].Receipt.Records}
	}
	inputs[1].Rewriter = panicRewriter{}
	outs, err := pl.DetectBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i == 1 {
			if o.Err == nil || o.Detection != nil {
				t.Errorf("panicking doc: err=%v detection=%v", o.Err, o.Detection)
			}
			continue
		}
		if o.Err != nil || !o.Detection.Detected {
			t.Errorf("doc %s: err=%v", o.ID, o.Err)
		}
	}
}

// TestCancellationSkipsRemainder: a cancelled context must mark
// unstarted documents ErrBatchSkipped and surface ctx.Err() from the
// batch.
func TestCancellationSkipsRemainder(t *testing.T) {
	docs, opts := corpus(t, 6, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts: everything skips
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 3})
	outs, err := pl.EmbedBatch(ctx, docs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sum := wmxml.SummarizeEmbedBatch(outs)
	if sum.Skipped != len(docs) {
		t.Errorf("summary = %+v, want all skipped", sum)
	}
	for _, o := range outs {
		if !errors.Is(o.Err, wmxml.ErrBatchSkipped) {
			t.Errorf("doc %s: err = %v, want ErrBatchSkipped", o.ID, o.Err)
		}
	}
}

// seq yields docs as a streaming source tagged "doc-NNN".
func seq(docs []*wmxml.Document) func(yield func(string, *wmxml.Document) bool) {
	return func(yield func(string, *wmxml.Document) bool) {
		for i, doc := range docs {
			if !yield(fmt.Sprintf("doc-%03d", i), doc) {
				return
			}
		}
	}
}

// endless yields fresh documents of the given size until the consumer
// stops it, so only cancellation can end a stream drawn from it.
func endless(books int) func(yield func(string, *wmxml.Document) bool) {
	return func(yield func(string, *wmxml.Document) bool) {
		for i := 0; ; i++ {
			if !yield(fmt.Sprintf("doc-%03d", i), wmxml.PublicationsDataset(books, int64(i+1)).Doc) {
				return
			}
		}
	}
}

// TestEmbedStream drains a streaming source and checks completeness and
// per-document correctness, then checks cancellation ends the stream.
func TestEmbedStream(t *testing.T) {
	docs, opts := corpus(t, 9, 30)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 3})

	seen := make(map[string]bool)
	for o := range pl.EmbedSeq(context.Background(), seq(docs)) {
		if o.Err != nil {
			t.Fatalf("doc %s: %v", o.ID, o.Err)
		}
		if o.Receipt.Carriers == 0 {
			t.Errorf("doc %s: no carriers", o.ID)
		}
		seen[o.ID] = true
	}
	if len(seen) != len(docs) {
		t.Fatalf("stream yielded %d outcomes, want %d", len(seen), len(docs))
	}

	// Cancellation: the source never ends, so the stream must end
	// because ctx did.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for range pl.EmbedSeq(ctx, endless(30)) {
		cancel() // first outcome arrived, workers are live
	}
}

// TestStreamDetect mirrors the batch detection result over the
// streaming interface.
func TestStreamDetect(t *testing.T) {
	docs, opts := corpus(t, 5, 30)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 2})
	embeds, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	src := func(yield func(wmxml.DetectInput) bool) {
		for i, doc := range docs {
			if !yield(wmxml.DetectInput{ID: fmt.Sprintf("doc-%03d", i), Doc: doc, Records: embeds[i].Receipt.Records}) {
				return
			}
		}
	}
	n := 0
	for o := range pl.DetectSeq(context.Background(), src) {
		if o.Err != nil || !o.Detection.Detected {
			t.Errorf("doc %s: err=%v", o.ID, o.Err)
		}
		n++
	}
	if n != len(docs) {
		t.Fatalf("stream yielded %d outcomes, want %d", n, len(docs))
	}
}

// TestWorkerDefaults pins the Workers resolution rules.
func TestWorkerDefaults(t *testing.T) {
	_, opts := corpus(t, 1, 10)
	sys := newSystem(t, opts)
	if w := wmxml.NewPipeline(sys, wmxml.PipelineOptions{}).Workers(); w < 1 {
		t.Errorf("default workers = %d", w)
	}
	if w := wmxml.NewPipeline(sys, wmxml.PipelineOptions{Workers: 7}).Workers(); w != 7 {
		t.Errorf("workers = %d, want 7", w)
	}
}
