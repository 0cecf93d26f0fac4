// Package pipeline runs WmXML embedding and detection over whole
// corpora of XML documents — the batch engine behind wmxml.Pipeline and
// the `wmxml batch` command.
//
// The paper's encoder and decoder (internal/core) process one document
// per call. A publisher protecting a catalog, or an auditor sweeping a
// crawl for leaked marks, has thousands; the pipeline fans those out
// over a bounded worker pool. Design points:
//
//   - Bounded concurrency: at most Workers documents are in flight; the
//     default is GOMAXPROCS. Each document may additionally use the
//     core Concurrency option internally; the two multiply, so corpus
//     runs usually keep per-document concurrency at 1.
//   - Per-document isolation: a document that fails to embed or detect
//     (invalid against the schema, unparseable values, a panic in a
//     plug-in) yields an outcome with Err set; the rest of the batch is
//     unaffected.
//   - Deterministic outcomes: batch results are returned in input
//     order, and each document's result is bit-for-bit what a
//     standalone core.Embed / core.Detect* call would produce, because
//     documents share no mutable state.
//   - Cancellation: the context stops the batch between documents;
//     outcomes for documents never started carry ErrSkipped and the
//     batch call returns ctx.Err().
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"wmxml/internal/core"
	"wmxml/internal/index"
	"wmxml/internal/stream"
	"wmxml/internal/xmltree"
)

// ErrSkipped marks outcomes of documents the engine never started
// because the batch context was cancelled first.
var ErrSkipped = errors.New("pipeline: document skipped (batch cancelled)")

// Job is one document entering the pipeline, tagged for reporting.
type Job struct {
	// ID names the document in outcomes — a file name, a database key.
	ID string
	// Doc is the document. Embedding mutates it in place.
	Doc *xmltree.Node
}

// DetectJob pairs a suspect document with its detection inputs.
type DetectJob struct {
	Job
	// Records is the safeguarded query set Q for this document; nil
	// runs blind detection (the document must follow the original
	// schema).
	Records []core.QueryRecord
	// Rewriter translates queries for a re-organized suspect; nil when
	// the suspect kept the original layout. Rewriters built by
	// internal/rewrite are stateless and may be shared across jobs.
	Rewriter core.Rewriter
}

// EmbedOutcome is the embedding result of one job.
type EmbedOutcome struct {
	// ID and Index identify the job (Index is its position in the
	// batch, or arrival order for streams).
	ID    string
	Index int
	// Result is the embed receipt; nil when Err is set.
	Result *core.EmbedResult
	// Err is the document's own failure, ErrSkipped when the batch was
	// cancelled before the document started, or nil.
	Err error
	// Verify is the immediate post-embed detection result when
	// Options.Verify is set (nil otherwise, or when VerifyErr is set).
	Verify *core.DetectResult
	// VerifyErr is the verification pass's own failure.
	VerifyErr error
	// Stream reports chunking stats for jobs run through EmbedReader
	// (nil for tree jobs).
	Stream *stream.Stats
}

// DetectOutcome is the detection result of one job.
type DetectOutcome struct {
	ID    string
	Index int
	// Result is the detection outcome; nil when Err is set.
	Result *core.DetectResult
	Err    error
	// Stream reports chunking stats for jobs run through DetectReader
	// (nil for tree jobs).
	Stream *stream.Stats
}

// Options configures an Engine.
type Options struct {
	// Workers bounds how many documents are processed concurrently.
	// 0 means GOMAXPROCS; 1 is sequential.
	Workers int
	// Verify re-runs detection with the freshly generated query set on
	// each successfully embedded document, reusing the document index
	// built for embedding (the index's value tables are invalidated by
	// the embed phase, so verification reads post-embed values). The
	// outcome lands in EmbedOutcome.Verify.
	Verify bool
}

// Engine embeds and detects watermarks across document corpora. It is
// immutable after New and safe for concurrent use.
type Engine struct {
	cfg     core.Config
	workers int
	verify  bool
}

// New builds an Engine from a core configuration. The configuration is
// validated lazily by core.Embed / core.Detect* per document, so an
// invalid config surfaces as per-document errors rather than a
// constructor failure — batch callers handle outcome errors anyway.
func New(cfg core.Config, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{cfg: cfg, workers: w, verify: opts.Verify}
}

// Workers reports the effective worker bound.
func (e *Engine) Workers() int { return e.workers }

// EmbedAll embeds the watermark into every job's document in place and
// returns one outcome per job, in input order. The returned error is
// nil or ctx.Err(); per-document failures live in the outcomes.
func (e *Engine) EmbedAll(ctx context.Context, jobs []Job) ([]EmbedOutcome, error) {
	outs := make([]EmbedOutcome, len(jobs))
	for i, j := range jobs {
		outs[i] = EmbedOutcome{ID: j.ID, Index: i, Err: ErrSkipped}
	}
	err := e.fanOut(ctx, len(jobs), func(i int) {
		outs[i] = e.embedOne(ctx, i, jobs[i])
	})
	return outs, err
}

// DetectAll runs detection on every job and returns one outcome per
// job, in input order. The returned error is nil or ctx.Err().
func (e *Engine) DetectAll(ctx context.Context, jobs []DetectJob) ([]DetectOutcome, error) {
	outs := make([]DetectOutcome, len(jobs))
	for i, j := range jobs {
		outs[i] = DetectOutcome{ID: j.ID, Index: i, Err: ErrSkipped}
	}
	err := e.fanOut(ctx, len(jobs), func(i int) {
		outs[i] = e.detectOne(ctx, i, jobs[i])
	})
	return outs, err
}

// EmbedStream embeds documents as they arrive on in and delivers
// outcomes on the returned channel, which closes when in is drained or
// ctx is cancelled. Outcome order is completion order; Index records
// arrival order. Up to Workers documents are in flight at once.
func (e *Engine) EmbedStream(ctx context.Context, in <-chan Job) <-chan EmbedOutcome {
	return fanStream(ctx, e.workers, in, e.embedOne)
}

// DetectStream is EmbedStream for detection jobs.
func (e *Engine) DetectStream(ctx context.Context, in <-chan DetectJob) <-chan DetectOutcome {
	return fanStream(ctx, e.workers, in, e.detectOne)
}

// embedOne processes one document, converting panics in value plug-ins
// or tree code into per-document errors so a poisoned document cannot
// take down the batch.
func (e *Engine) embedOne(ctx context.Context, jobIndex int, j Job) (out EmbedOutcome) {
	out = EmbedOutcome{ID: j.ID, Index: jobIndex}
	if err := ctx.Err(); err != nil {
		out.Err = ErrSkipped
		return out
	}
	defer func() {
		if r := recover(); r != nil {
			out.Result = nil
			out.Err = fmt.Errorf("pipeline: embed %q panicked: %v", j.ID, r)
		}
	}()
	if j.Doc == nil {
		out.Err = fmt.Errorf("pipeline: job %q has no document", j.ID)
		return out
	}
	// One index per document, shared across embed and (optionally)
	// verify: embedding invalidates its value tables, so the verify
	// detection reads post-embed values through still-valid structure.
	var ix *index.Index
	if !e.cfg.DisableIndex {
		ix = index.New(j.Doc)
	}
	out.Result, out.Err = core.EmbedIndexed(j.Doc, e.cfg, ix)
	if e.verify && out.Err == nil {
		out.Verify, out.VerifyErr = core.DetectWithQueriesIndexed(j.Doc, e.cfg, out.Result.Records, nil, ix)
	}
	return out
}

func (e *Engine) detectOne(ctx context.Context, jobIndex int, j DetectJob) (out DetectOutcome) {
	out = DetectOutcome{ID: j.ID, Index: jobIndex}
	if err := ctx.Err(); err != nil {
		out.Err = ErrSkipped
		return out
	}
	defer func() {
		if r := recover(); r != nil {
			out.Result = nil
			out.Err = fmt.Errorf("pipeline: detect %q panicked: %v", j.ID, r)
		}
	}()
	if j.Doc == nil {
		out.Err = fmt.Errorf("pipeline: job %q has no document", j.ID)
		return out
	}
	if j.Records == nil {
		out.Result, out.Err = core.DetectBlind(j.Doc, e.cfg)
	} else {
		out.Result, out.Err = core.DetectWithQueries(j.Doc, e.cfg, j.Records, j.Rewriter)
	}
	return out
}

// fanOut distributes indices [0, n) over the engine's worker pool,
// stopping the feed when ctx is cancelled. In-flight documents finish;
// unfed indices keep whatever the caller pre-filled (ErrSkipped).
func (e *Engine) fanOut(ctx context.Context, n int, fn func(i int)) error {
	workers := e.workers
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

// fanStream is the shared worker loop behind EmbedStream and DetectStream.
// A single dispatcher goroutine drains in and stamps each job with its
// arrival index before any worker can race for the next receive, so
// Index reflects true arrival order even with many workers.
func fanStream[J any, O any](ctx context.Context, workers int, in <-chan J, fn func(context.Context, int, J) O) <-chan O {
	type numbered struct {
		i int
		j J
	}
	seq := make(chan numbered)
	go func() {
		defer close(seq)
		for i := 0; ; i++ {
			var j J
			var ok bool
			select {
			case <-ctx.Done():
				return
			case j, ok = <-in:
				if !ok {
					return
				}
			}
			select {
			case seq <- numbered{i, j}:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := make(chan O)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nj := range seq {
				o := fn(ctx, nj.i, nj.j)
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
	return out
}

// EmbedSummary aggregates a batch of embed outcomes.
type EmbedSummary struct {
	// Docs is the batch size; Succeeded + Failed + Skipped == Docs.
	Docs, Succeeded, Failed, Skipped int
	// BandwidthUnits, Carriers and ValuesWritten sum the receipts of
	// the successful documents.
	BandwidthUnits, Carriers, ValuesWritten int
}

// Add folds one outcome into the summary: err classifies the document
// (skipped / failed / succeeded) and the capacity figures accumulate
// only on success. This is the single classification point shared by
// the internal and public summarizers.
func (s *EmbedSummary) Add(err error, bandwidthUnits, carriers, valuesWritten int) {
	s.Docs++
	switch {
	case errors.Is(err, ErrSkipped):
		s.Skipped++
	case err != nil:
		s.Failed++
	default:
		s.Succeeded++
		s.BandwidthUnits += bandwidthUnits
		s.Carriers += carriers
		s.ValuesWritten += valuesWritten
	}
}

// SummarizeEmbed folds outcomes into corpus-level statistics.
func SummarizeEmbed(outs []EmbedOutcome) EmbedSummary {
	var s EmbedSummary
	for _, o := range outs {
		if o.Result != nil {
			s.Add(o.Err, o.Result.Bandwidth.Units, o.Result.Carriers, o.Result.Embedded)
		} else {
			s.Add(o.Err, 0, 0, 0)
		}
	}
	return s
}

// DetectSummary aggregates a batch of detect outcomes.
type DetectSummary struct {
	Docs, Succeeded, Failed, Skipped int
	// Detected counts successful documents whose watermark was found.
	Detected int
	// MeanMatch and MeanCoverage average over successful documents
	// (0 when none succeeded).
	MeanMatch, MeanCoverage float64
}

// Add folds one outcome into the summary. Call Finalize after the last
// Add to turn the accumulated match/coverage sums into means.
func (s *DetectSummary) Add(err error, detected bool, match, coverage float64) {
	s.Docs++
	switch {
	case errors.Is(err, ErrSkipped):
		s.Skipped++
	case err != nil:
		s.Failed++
	default:
		s.Succeeded++
		if detected {
			s.Detected++
		}
		s.MeanMatch += match
		s.MeanCoverage += coverage
	}
}

// Finalize converts the accumulated sums into means over the
// successful documents.
func (s *DetectSummary) Finalize() {
	if s.Succeeded > 0 {
		s.MeanMatch /= float64(s.Succeeded)
		s.MeanCoverage /= float64(s.Succeeded)
	}
}

// SummarizeDetect folds outcomes into corpus-level statistics.
func SummarizeDetect(outs []DetectOutcome) DetectSummary {
	var s DetectSummary
	for _, o := range outs {
		if o.Result != nil {
			s.Add(o.Err, o.Result.Detected, o.Result.MatchFraction, o.Result.Coverage)
		} else {
			s.Add(o.Err, false, 0, 0)
		}
	}
	s.Finalize()
	return s
}
