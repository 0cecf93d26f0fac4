package wmxml

// Batch processing: embed and detect watermarks across corpora of
// documents with a bounded worker pool around the System calls. See
// DESIGN.md ("Batch pipeline") and the `wmxml batch` command.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"runtime"
	"sync"

	"wmxml/internal/core"
	"wmxml/internal/index"
)

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// Workers bounds how many documents are processed concurrently.
	// 0 means GOMAXPROCS; 1 processes sequentially.
	Workers int
	// Verify re-runs detection with the freshly generated query set on
	// each successfully embedded document, reusing the per-document
	// index built for embedding. The result lands in BatchEmbed.Verify.
	Verify bool
}

// Pipeline embeds and detects watermarks across many documents
// concurrently: per-document isolation (one bad document does not abort
// the batch), input-order results for the Batch methods,
// completion-order results for the Seq streams, and context
// cancellation throughout. Each document's result is what the
// corresponding System call gives it alone. It is safe for concurrent
// use.
type Pipeline struct {
	sys     *System
	workers int
	verify  bool
}

// NewPipeline builds a batch pipeline over a configured System.
func NewPipeline(sys *System, opts PipelineOptions) *Pipeline {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{sys: sys, workers: w, verify: opts.Verify}
}

// Workers reports the effective worker bound.
func (p *Pipeline) Workers() int { return p.workers }

// BatchEmbed is the embedding outcome of one document in a batch.
type BatchEmbed struct {
	// ID names the document: the Seq source's tag, or "#<index>" for
	// the slice-based Batch call.
	ID string
	// Index is the document's position in the batch (arrival order for
	// streams).
	Index int
	// Receipt is the embed receipt; nil when Err is set.
	Receipt *EmbedReceipt
	// Err is this document's failure: its own embed error, or
	// ErrBatchSkipped when the batch was cancelled before the document
	// started.
	Err error
	// Verify is the immediate post-embed detection when
	// PipelineOptions.Verify is set (nil otherwise, or when VerifyErr is
	// set).
	Verify *Detection
	// VerifyErr is the verification pass's own failure.
	VerifyErr error
}

// BatchDetection is the detection outcome of one document in a batch.
type BatchDetection struct {
	ID        string
	Index     int
	Detection *Detection
	Err       error
}

// DetectInput pairs a suspect document with its detection inputs for
// batch detection.
type DetectInput struct {
	// ID tags the outcome; empty IDs are filled with "#<index>" by
	// DetectBatch.
	ID  string
	Doc *Document
	// Records is this document's safeguarded query set Q; nil runs
	// blind detection.
	Records []QueryRecord
	// Rewriter translates queries for a re-organized suspect; nil when
	// the layout is unchanged. Rewriters from NewRewriter are stateless
	// and may be shared by every input.
	Rewriter Rewriter
}

// ErrBatchSkipped marks outcomes of documents that were never started
// because the batch context was cancelled first.
var ErrBatchSkipped = errors.New("pipeline: document skipped (batch cancelled)")

// EmbedBatch embeds the watermark into every document in place and
// returns one outcome per document, in input order. The returned error
// is nil or ctx.Err(); per-document failures are in the outcomes.
func (p *Pipeline) EmbedBatch(ctx context.Context, docs []*Document) ([]BatchEmbed, error) {
	outs := make([]BatchEmbed, len(docs))
	for i := range outs {
		outs[i] = BatchEmbed{ID: fmt.Sprintf("#%d", i), Index: i, Err: ErrBatchSkipped}
	}
	err := p.fanOut(ctx, len(docs), func(i int) {
		outs[i] = p.embedOne(ctx, i, outs[i].ID, docs[i])
	})
	return outs, err
}

// DetectBatch runs detection on every input and returns one outcome per
// input, in input order. The returned error is nil or ctx.Err().
func (p *Pipeline) DetectBatch(ctx context.Context, inputs []DetectInput) ([]BatchDetection, error) {
	outs := make([]BatchDetection, len(inputs))
	for i, in := range inputs {
		id := in.ID
		if id == "" {
			id = fmt.Sprintf("#%d", i)
		}
		outs[i] = BatchDetection{ID: id, Index: i, Err: ErrBatchSkipped}
	}
	err := p.fanOut(ctx, len(inputs), func(i int) {
		in := inputs[i]
		in.ID = outs[i].ID
		outs[i] = p.detectOne(ctx, i, in)
	})
	return outs, err
}

// DetectBatchBlind runs blind detection (no stored query sets) over a
// document slice; every document must still follow the original schema.
func (p *Pipeline) DetectBatchBlind(ctx context.Context, docs []*Document) ([]BatchDetection, error) {
	inputs := make([]DetectInput, len(docs))
	for i, d := range docs {
		inputs[i] = DetectInput{Doc: d}
	}
	return p.DetectBatch(ctx, inputs)
}

// EmbedSeq embeds a streaming corpus: documents are drawn from src as
// workers free up, and outcomes are yielded in completion order. The
// stream stops early when ctx is cancelled or the consumer breaks out
// of the range loop.
func (p *Pipeline) EmbedSeq(ctx context.Context, src iter.Seq2[string, *Document]) iter.Seq[BatchEmbed] {
	type job struct {
		id  string
		doc *Document
	}
	jobs := func(yield func(job) bool) {
		for id, doc := range src {
			if !yield(job{id, doc}) {
				return
			}
		}
	}
	return fanStream(ctx, p.workers, jobs, func(ctx context.Context, i int, j job) BatchEmbed {
		return p.embedOne(ctx, i, j.id, j.doc)
	})
}

// DetectSeq detects over a streaming corpus of inputs, yielding
// outcomes in completion order.
func (p *Pipeline) DetectSeq(ctx context.Context, src iter.Seq[DetectInput]) iter.Seq[BatchDetection] {
	return fanStream(ctx, p.workers, src, p.detectOne)
}

// EmbedReader embeds a single streamed document through the pipeline's
// isolation (panics become the outcome's error; ctx cancels
// mid-document, between chunks): the document is read from r and the
// marked document — byte-identical to the in-memory path — is written
// to w incrementally, with peak memory bounded by chunk size instead
// of document size.
func (p *Pipeline) EmbedReader(ctx context.Context, id string, r io.Reader, w io.Writer, opts StreamOptions) (BatchEmbed, StreamStats) {
	out := BatchEmbed{ID: id}
	var stats StreamStats
	out.Err = isolate(ctx, "stream embed", id, func() (err error) {
		if r == nil || w == nil {
			return fmt.Errorf("pipeline: stream %q needs a reader and a writer", id)
		}
		out.Receipt, stats, err = p.sys.EmbedStreamContext(ctx, r, w, opts)
		return err
	})
	return out, stats
}

// DetectReader detects over a single streamed document (blind when
// records is nil) with the same isolation and cancellation contract as
// EmbedReader.
func (p *Pipeline) DetectReader(ctx context.Context, id string, r io.Reader, records []QueryRecord, rw Rewriter, opts StreamOptions) (BatchDetection, StreamStats) {
	out := BatchDetection{ID: id}
	var stats StreamStats
	out.Err = isolate(ctx, "stream detect", id, func() (err error) {
		switch {
		case r == nil:
			return fmt.Errorf("pipeline: stream %q needs a reader", id)
		case records == nil:
			out.Detection, stats, err = p.sys.DetectBlindStreamContext(ctx, r, opts)
		default:
			out.Detection, stats, err = p.sys.DetectStreamContext(ctx, r, records, rw, opts)
		}
		return err
	})
	return out, stats
}

// embedOne embeds one document. Embed and the optional verify share one
// index: embedding invalidates its value tables, so verification reads
// the post-embed values through still-valid structure.
func (p *Pipeline) embedOne(ctx context.Context, i int, id string, doc *Document) BatchEmbed {
	out := BatchEmbed{ID: id, Index: i}
	out.Err = isolate(ctx, "embed", id, func() error {
		if doc == nil {
			return fmt.Errorf("pipeline: document %q is nil", id)
		}
		var ix *index.Index
		if !p.sys.cfg.DisableIndex {
			ix = index.New(doc)
		}
		res, err := core.EmbedIndexed(doc, p.sys.cfg, ix)
		if err != nil {
			return err
		}
		if p.verify {
			out.Verify, out.VerifyErr = p.sys.DetectIndexed(doc, res.Records, nil, ix)
		}
		out.Receipt = toReceipt(res)
		return nil
	})
	return out
}

// detectOne detects over one input: blind when it has no records.
func (p *Pipeline) detectOne(ctx context.Context, i int, in DetectInput) BatchDetection {
	out := BatchDetection{ID: in.ID, Index: i}
	out.Err = isolate(ctx, "detect", in.ID, func() (err error) {
		switch {
		case in.Doc == nil:
			return fmt.Errorf("pipeline: document %q is nil", in.ID)
		case in.Records == nil:
			out.Detection, err = p.sys.DetectBlind(in.Doc)
		default:
			out.Detection, err = p.sys.Detect(in.Doc, in.Records, in.Rewriter)
		}
		return err
	})
	return out
}

// isolate runs one document's work. A cancelled ctx skips it with
// ErrBatchSkipped, and a panic in tree or plug-in code becomes its
// error, so a poisoned document cannot take down the batch. work sets
// the outcome's result only after the call producing it returns, so a
// panicking document keeps a nil result.
func isolate(ctx context.Context, op, id string, work func() error) (err error) {
	if ctx.Err() != nil {
		return ErrBatchSkipped
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: %s %q panicked: %v", op, id, r)
		}
	}()
	return work()
}

// fanOut distributes indices [0, n) over the pipeline's worker pool,
// stopping the feed when ctx is cancelled. In-flight documents finish;
// unfed indices keep whatever the caller pre-filled (ErrBatchSkipped).
func (p *Pipeline) fanOut(ctx context.Context, n int, fn func(i int)) error {
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(i)
		}
		return ctx.Err()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}

// fanStream is the worker loop behind EmbedSeq and DetectSeq. The
// consumer's goroutine ranges src, stamps each input with its position
// in src and hands it to a free worker, yielding finished outcomes
// while it waits for one; once src ends it yields the rest. The
// sequence ends when src and the workers are done, ctx is cancelled or
// the consumer stops ranging; the workers then exit without waiting to
// deliver.
func fanStream[J, O any](ctx context.Context, workers int, src iter.Seq[J], fn func(context.Context, int, J) O) iter.Seq[O] {
	return func(yield func(O) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type numbered struct {
			i int
			j J
		}
		in := make(chan numbered)
		out := make(chan O)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range in {
					o := fn(ctx, n.i, n.j)
					select {
					case out <- o:
					case <-ctx.Done():
						return
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(out)
		}()
		feed := func() bool {
			defer close(in)
			i := 0
			for j := range src {
				for sent := false; !sent; {
					select {
					case in <- numbered{i, j}:
						sent = true
					case o, ok := <-out:
						// out closes early only once ctx is done and
						// every worker has quit.
						if !ok || !yield(o) {
							return false
						}
					case <-ctx.Done():
						return false
					}
				}
				i++
			}
			return true
		}
		if !feed() {
			return
		}
		for o := range out {
			if !yield(o) {
				return
			}
		}
	}
}

// BatchEmbedSummary aggregates a batch of embed outcomes.
type BatchEmbedSummary struct {
	// Docs is the batch size; Succeeded + Failed + Skipped == Docs.
	Docs, Succeeded, Failed, Skipped int
	// BandwidthUnits, Carriers and ValuesWritten sum the receipts of
	// the successful documents.
	BandwidthUnits, Carriers, ValuesWritten int
}

// BatchDetectSummary aggregates a batch of detect outcomes.
type BatchDetectSummary struct {
	// Docs is the batch size; Succeeded + Failed + Skipped == Docs.
	Docs, Succeeded, Failed, Skipped int
	// Detected counts successful documents whose watermark was found.
	Detected int
	// MeanMatch and MeanCoverage average over successful documents
	// (0 when none succeeded).
	MeanMatch, MeanCoverage float64
}

// SummarizeEmbedBatch folds outcomes into corpus-level statistics.
func SummarizeEmbedBatch(outs []BatchEmbed) BatchEmbedSummary {
	s := BatchEmbedSummary{Docs: len(outs)}
	for _, o := range outs {
		switch {
		case errors.Is(o.Err, ErrBatchSkipped):
			s.Skipped++
		case o.Err != nil:
			s.Failed++
		default:
			s.Succeeded++
			if r := o.Receipt; r != nil {
				s.BandwidthUnits += r.BandwidthUnits
				s.Carriers += r.Carriers
				s.ValuesWritten += r.ValuesWritten
			}
		}
	}
	return s
}

// SummarizeDetectBatch folds outcomes into corpus-level statistics.
func SummarizeDetectBatch(outs []BatchDetection) BatchDetectSummary {
	s := BatchDetectSummary{Docs: len(outs)}
	for _, o := range outs {
		switch {
		case errors.Is(o.Err, ErrBatchSkipped):
			s.Skipped++
		case o.Err != nil:
			s.Failed++
		default:
			s.Succeeded++
			if d := o.Detection; d != nil {
				if d.Detected {
					s.Detected++
				}
				s.MeanMatch += d.MatchFraction
				s.MeanCoverage += d.Coverage
			}
		}
	}
	if s.Succeeded > 0 {
		s.MeanMatch /= float64(s.Succeeded)
		s.MeanCoverage /= float64(s.Succeeded)
	}
	return s
}
