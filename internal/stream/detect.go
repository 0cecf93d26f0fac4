package stream

// Streaming detection: decode a suspect document chunk by chunk,
// merging the per-chunk vote tables into exactly the table a
// whole-document decode would produce.
//
// Queries mode compiles the safeguarded query set once and runs every
// record against every chunk through the per-chunk DocumentIndex; a
// record's zero-selection miss is decided only after the last chunk, so
// "the carrier lives in another chunk" never reads as a miss. Blind
// mode re-enumerates each chunk's bandwidth units and decodes them with
// the same unit decoder the in-memory path uses; FD-canonicalized units
// that span chunks are tracked by identity so queries-run / query-miss
// accounting stays exact.

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// DecodeResult is a streaming decode's outcome.
type DecodeResult struct {
	*core.DecodeResult
	Stats Stats
}

// chunkDecode is one blind-mode chunk's decode contribution, merged in
// order by the collector: key-unit tallies plus the per-FD-group
// outcomes that need cross-chunk reconciliation. (Queries mode needs
// no per-chunk struct — votes merge under a mutex and per-record hits
// accumulate in a shared atomic slice.)
type chunkDecode struct {
	votes             *wmark.Votes
	keyRan, keyMissed int
	fdUnits           []fdUnitOutcome
}

type fdUnitOutcome struct {
	id        string
	extracted bool
}

// Decode runs the query-execution half of detection over a streamed
// suspect document and returns the raw vote table — exactly the table
// core.DecodeWithQueriesIndexed would produce on the materialized
// document. Query sets that are not chunk-local (positional
// predicates, upward axes) fall back to the in-memory path.
func Decode(ctx context.Context, r io.Reader, cfg core.Config, records []core.QueryRecord, rw core.Rewriter, opts Options) (*DecodeResult, error) {
	opts = opts.withDefaults()
	p, err := buildPlan(cfg)
	if err != nil {
		return nil, err
	}
	compiled, err := core.CompileRecords(cfg, records, rw)
	if err != nil {
		return nil, err
	}
	if p.fallback == "" {
		for i := range compiled {
			if compiled[i].Runnable() && !chunkLocal(compiled[i].Query()) {
				p.fallback = "query set is not chunk-local (positional or upward-looking query)"
				break
			}
		}
	}
	if p.fallback != "" {
		return decodeSlurp(ctx, r, cfg, records, rw, opts, p.fallback)
	}

	markLen := len(cfg.WithDefaults().Mark)
	hits := make([]atomic.Int64, len(compiled))
	var mu sync.Mutex
	merged := wmark.NewVotes(markLen)

	sp := xmltree.NewStreamParser(r, opts.Parse)
	work := func(c *chunk) error {
		doc := skeleton(sp.Root(), c.items)
		ix := newChunkIndex(doc, cfg)
		votes := wmark.NewVotes(markLen)
		var sc xpath.Scratch
		for i := range compiled {
			cr := &compiled[i]
			if !cr.Runnable() {
				continue
			}
			if n := cr.DecodeInto(doc, ix, votes, &sc); n > 0 {
				hits[i].Add(int64(n))
			}
		}
		mu.Lock()
		merged.Merge(votes)
		mu.Unlock()
		return nil
	}
	stats, err := runChunked(ctx, sp, p.records, opts, work, func(*chunk) error { return nil })
	if err != nil {
		return nil, err
	}
	dec := &core.DecodeResult{Votes: merged}
	for i := range compiled {
		cr := &compiled[i]
		switch {
		case cr.RewriteFailed():
			dec.RewriteErrors++
			merged.AddMiss()
		case !cr.Runnable():
		default:
			dec.QueriesRun++
			if hits[i].Load() == 0 {
				dec.QueryMisses++
				merged.AddMiss()
			}
		}
	}
	return &DecodeResult{DecodeResult: dec, Stats: *stats}, nil
}

// Detect is Decode scored against cfg.Mark — the streaming counterpart
// of core.DetectWithQueries.
func Detect(ctx context.Context, r io.Reader, cfg core.Config, records []core.QueryRecord, rw core.Rewriter, opts Options) (*core.DetectResult, Stats, error) {
	dec, err := Decode(ctx, r, cfg, records, rw, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return core.ScoreDecode(dec.DecodeResult, cfg), dec.Stats, nil
}

// DecodeBlind re-derives the carriers chunk by chunk (no stored query
// set) and returns the raw vote table — exactly the table
// core.DecodeBlindIndexed would produce on the materialized document.
func DecodeBlind(ctx context.Context, r io.Reader, cfg core.Config, opts Options) (*DecodeResult, error) {
	opts = opts.withDefaults()
	p, err := buildPlan(cfg)
	if err != nil {
		return nil, err
	}
	if p.fallback != "" {
		return decodeBlindSlurp(ctx, r, cfg, opts, p.fallback)
	}
	bd, err := core.NewBlindDecoder(cfg)
	if err != nil {
		return nil, err
	}
	cfgD := bd.Config()
	markLen := len(cfgD.Mark)
	builder := identity.NewBuilder(cfgD.Schema, cfgD.Catalog, cfgD.Identity)

	merged := wmark.NewVotes(markLen)
	var keyRan, keyMissed int
	// fdSeen reconciles FD-canonicalized groups whose members are split
	// across chunks: the group counts as one executed query, and as one
	// miss only when no part of it extracted anything. Memory is one
	// entry per distinct selected group — receipt-sized, not
	// document-sized.
	fdSeen := make(map[string]bool)

	sp := xmltree.NewStreamParser(r, opts.Parse)
	work := func(c *chunk) error {
		doc := skeleton(sp.Root(), c.items)
		ix := newChunkIndex(doc, cfgD)
		units, _, err := builder.UnitsIndexed(doc, ix)
		if err != nil {
			return err
		}
		cd := &chunkDecode{votes: wmark.NewVotes(markLen)}
		for _, u := range units {
			ran, extracted := bd.DecodeUnit(u, cd.votes)
			if !ran {
				continue
			}
			if k := recordKind(u.ID); k == "fd" || k == "det" {
				cd.fdUnits = append(cd.fdUnits, fdUnitOutcome{id: u.ID, extracted: extracted})
				continue
			}
			cd.keyRan++
			if !extracted {
				cd.keyMissed++
			}
		}
		c.dec = cd
		return nil
	}
	emit := func(c *chunk) error {
		if c.dec == nil {
			return nil
		}
		merged.Merge(c.dec.votes)
		keyRan += c.dec.keyRan
		keyMissed += c.dec.keyMissed
		for _, fu := range c.dec.fdUnits {
			fdSeen[fu.id] = fdSeen[fu.id] || fu.extracted
		}
		return nil
	}
	stats, err := runChunked(ctx, sp, p.records, opts, work, emit)
	if err != nil {
		return nil, err
	}
	dec := &core.DecodeResult{Votes: merged, QueriesRun: keyRan + len(fdSeen), QueryMisses: keyMissed}
	for _, ok := range fdSeen {
		if !ok {
			dec.QueryMisses++
		}
	}
	return &DecodeResult{DecodeResult: dec, Stats: *stats}, nil
}

// DetectBlind is DecodeBlind scored against cfg.Mark — the streaming
// counterpart of core.DetectBlind.
func DetectBlind(ctx context.Context, r io.Reader, cfg core.Config, opts Options) (*core.DetectResult, Stats, error) {
	dec, err := DecodeBlind(ctx, r, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return core.ScoreDecode(dec.DecodeResult, cfg), dec.Stats, nil
}

// newChunkIndex builds the per-chunk DocumentIndex unless the
// configuration disables indexing. It returns the untyped nil interface
// in the disabled case so SelectIndexed degrades to the tree walk.
func newChunkIndex(doc *xmltree.Node, cfg core.Config) xpath.DocIndex {
	if cfg.DisableIndex {
		return nil
	}
	return index.New(doc)
}

// decodeSlurp is the in-memory queries-mode fallback.
func decodeSlurp(ctx context.Context, r io.Reader, cfg core.Config, records []core.QueryRecord, rw core.Rewriter, opts Options, reason string) (*DecodeResult, error) {
	doc, err := slurpDoc(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	dec, err := core.DecodeWithQueriesIndexed(doc, cfg, records, rw, nil)
	if err != nil {
		return nil, err
	}
	return &DecodeResult{DecodeResult: dec, Stats: Stats{FallbackReason: reason}}, nil
}

// decodeBlindSlurp is the in-memory blind fallback.
func decodeBlindSlurp(ctx context.Context, r io.Reader, cfg core.Config, opts Options, reason string) (*DecodeResult, error) {
	doc, err := slurpDoc(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	dec, err := core.DecodeBlindIndexed(doc, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &DecodeResult{DecodeResult: dec, Stats: Stats{FallbackReason: reason}}, nil
}

func slurpDoc(ctx context.Context, r io.Reader, opts Options) (*xmltree.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return xmltree.Parse(r, opts.Parse)
}
