package core

// DecodePlan: the compile-once / decode-many form of query-set
// detection — the decoder-side twin of internal/deliver's patch plans.
//
// DecodeWithQueriesIndexed pays for query parsing, plan compilation and
// two HMACs per record on every call, which dominates warm detection
// once the document itself is cached and indexed. A DecodePlan hoists
// all of that into CompileDecodePlan and leaves Decode with only the
// per-document work: one index lookup and one bit extraction per
// record, accumulated through pooled scratch buffers so the steady
// state allocates almost nothing (the returned vote table is the one
// unavoidable allocation — it outlives the call by design, since
// tracing correlates it against every recipient's code).
//
// A DecodePlan is immutable after compilation and safe for concurrent
// use: every mutable buffer lives in package-level sync.Pools.

import (
	"sync"

	"wmxml/internal/index"
	"wmxml/internal/obs"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// DecodePlan is a compiled query set bound to its decoding
// configuration. Build with CompileDecodePlan; evaluate with Decode or
// Detect.
type DecodePlan struct {
	cfg      Config
	compiled []CompiledRecord
}

// CompileDecodePlan validates cfg, compiles the query set once
// (parsing, rewriting, plug-in resolution, keyed bit assignment) and
// returns the reusable plan.
func CompileDecodePlan(cfg Config, records []QueryRecord, rw Rewriter) (*DecodePlan, error) {
	cfg = cfg.withDefaults()
	compiled, err := CompileRecords(cfg, records, rw)
	if err != nil {
		return nil, err
	}
	return &DecodePlan{cfg: cfg, compiled: compiled}, nil
}

// Config returns the plan's defaulted configuration.
func (p *DecodePlan) Config() Config { return p.cfg }

// MarkLen returns the bit length of the mark the plan decodes against.
func (p *DecodePlan) MarkLen() int { return len(p.cfg.Mark) }

// Records returns the number of compiled query records.
func (p *DecodePlan) Records() int { return len(p.compiled) }

// scratchPool recycles per-worker xpath evaluation buffers across
// decode calls (a Scratch serves one goroutine at a time).
var scratchPool = sync.Pool{New: func() any { return new(xpath.Scratch) }}

// votesPool recycles the extra workers' vote accumulators. Worker 0's
// table is never pooled: it becomes DecodeResult.Votes and outlives the
// call.
var votesPool = sync.Pool{New: func() any { return new(wmark.Votes) }}

// decodeRecord folds one compiled record into acc — the shared
// per-record switch of the sequential and concurrent paths.
func decodeRecord(cr *CompiledRecord, doc *xmltree.Node, dix xpath.DocIndex, acc *detectAcc, sc *xpath.Scratch) {
	switch {
	case cr.rewriteFailed:
		acc.rewriteErrors++
		acc.votes.AddMiss()
	case cr.alg == nil:
		// No extraction plug-in for the type: the record is inert.
	default:
		acc.queriesRun++
		if cr.DecodeInto(doc, dix, acc.votes, sc) == 0 {
			acc.queryMisses++
			acc.votes.AddMiss()
		}
	}
}

// Decode executes the plan against doc and returns the raw vote table.
// ix must be an index over doc (or nil to build one per call; pass the
// cached index to stay on the zero-alloc path). The result is
// bit-for-bit identical to DecodeWithQueriesIndexed with the plan's
// config and records.
func (p *DecodePlan) Decode(doc *xmltree.Node, ix *index.Index) *DecodeResult {
	dix := docIndex(doc, p.cfg, ix)
	n := len(p.compiled)
	workers := detectWorkers(p.cfg.Concurrency, n)
	if workers <= 1 {
		// Sequential warm path: one scratch, one accumulator, no fan-out
		// bookkeeping. This is what the server's detect workers run.
		sc := scratchPool.Get().(*xpath.Scratch)
		acc := detectAcc{votes: wmark.NewVotes(len(p.cfg.Mark))}
		for i := range p.compiled {
			decodeRecord(&p.compiled[i], doc, dix, &acc, sc)
		}
		scratchPool.Put(sc)
		return &DecodeResult{
			Votes:         acc.votes,
			QueriesRun:    acc.queriesRun,
			QueryMisses:   acc.queryMisses,
			RewriteErrors: acc.rewriteErrors,
		}
	}
	accs := make([]*detectAcc, workers)
	scratches := make([]*xpath.Scratch, workers)
	markLen := len(p.cfg.Mark)
	for w := range accs {
		if w == 0 {
			accs[w] = &detectAcc{votes: wmark.NewVotes(markLen)}
		} else {
			v := votesPool.Get().(*wmark.Votes)
			v.Reset(markLen)
			accs[w] = &detectAcc{votes: v}
		}
		scratches[w] = scratchPool.Get().(*xpath.Scratch)
	}
	forEachWorker(workers, n, func(worker, i int) {
		decodeRecord(&p.compiled[i], doc, dix, accs[worker], scratches[worker])
	})
	res := mergeAccs(accs)
	for w := range accs {
		if w > 0 {
			votesPool.Put(accs[w].votes)
		}
		scratchPool.Put(scratches[w])
	}
	return res
}

// Detect is Decode scored against the plan's mark.
func (p *DecodePlan) Detect(doc *xmltree.Node, ix *index.Index) *DetectResult {
	return p.DetectTraced(doc, ix, nil)
}

// DetectTraced is Detect emitting "decode" and "vote" stage spans on
// tr. A nil tr records nothing and adds no allocations over an untraced
// Decode and ScoreDecode (pinned by TestDecodePlanTracedNoopAllocs) —
// this is the entry point instrumented callers use unconditionally.
func (p *DecodePlan) DetectTraced(doc *xmltree.Node, ix *index.Index, tr *obs.Trace) *DetectResult {
	dsp := tr.StartSpan("decode")
	dec := p.Decode(doc, ix)
	dsp.End()
	vsp := tr.StartSpan("vote")
	res := ScoreDecode(dec, p.cfg)
	vsp.End()
	return res
}
