package stream

// Streaming detection: decode a suspect document chunk by chunk through
// one core.DecodePlan and merge the chunk tallies into exactly the
// decode of the whole document. Chunks share no record element, so
// they are parts in the plan's sense: the stream only splits and
// merges, and the plan decides, once, after the last chunk, which
// records and FD groups missed.

import (
	"context"
	"io"

	"wmxml/internal/core"
	"wmxml/internal/xmltree"
)

// DecodeResult is a streaming decode's outcome.
type DecodeResult struct {
	*core.DecodeResult
	Stats Stats
}

// decodePlan is buildPlan for decoding through p: a query that is not
// chunk-local also forces the in-memory path.
func decodePlan(p *core.DecodePlan) (*plan, error) {
	pl, err := buildPlan(p.Config())
	if err != nil || pl.fallback != "" {
		return pl, err
	}
	for q := range p.Queries() {
		if !chunkLocal(q) {
			pl.fallback = "query set is not chunk-local (positional or upward-looking query)"
			break
		}
	}
	return pl, nil
}

// DetectFallbackReason is EmbedFallbackReason for streamed decoding
// through p, a receipt or blind plan.
func DetectFallbackReason(p *core.DecodePlan) (string, error) {
	pl, err := decodePlan(p)
	if err != nil {
		return "", err
	}
	return pl.fallback, nil
}

// Decode decodes a streamed suspect document through p and returns the
// raw vote table — exactly p.Decode's on the materialized document.
// Plans the chunked path cannot reproduce (DetectFallbackReason) decode
// the materialized document instead.
func Decode(ctx context.Context, r io.Reader, p *core.DecodePlan, opts Options) (*DecodeResult, error) {
	opts = opts.withDefaults()
	pl, err := decodePlan(p)
	if err != nil {
		return nil, err
	}
	if pl.fallback != "" {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		doc, err := xmltree.Parse(r, opts.Parse)
		if err != nil {
			return nil, err
		}
		return &DecodeResult{DecodeResult: p.Decode(doc, nil), Stats: Stats{FallbackReason: pl.fallback}}, nil
	}

	sp := xmltree.NewStreamParser(r, opts.Parse)
	sum := p.NewTally()
	work := func(c *chunk) error {
		c.tally = p.DecodePart(skeleton(sp.Root(), c.items), nil)
		return nil
	}
	emit := func(c *chunk) error {
		if c.tally != nil {
			sum.Merge(c.tally)
		}
		return nil
	}
	stats, err := runChunked(ctx, sp, pl.records, opts, work, emit)
	if err != nil {
		return nil, err
	}
	return &DecodeResult{DecodeResult: sum.Result(), Stats: *stats}, nil
}

// DetectPlan is Decode scored against the plan's mark.
func DetectPlan(ctx context.Context, r io.Reader, p *core.DecodePlan, opts Options) (*core.DetectResult, Stats, error) {
	dec, err := Decode(ctx, r, p, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return core.ScoreDecode(dec.DecodeResult, p.Config()), dec.Stats, nil
}

// Detect streams the paper's detection: the query set compiled under
// cfg (rewritten through rw when non-nil), scored against cfg.Mark —
// the streaming counterpart of core.DetectWithQueries.
func Detect(ctx context.Context, r io.Reader, cfg core.Config, records []core.QueryRecord, rw core.Rewriter, opts Options) (*core.DetectResult, Stats, error) {
	p, err := core.CompileDecodePlan(cfg, records, rw)
	if err != nil {
		return nil, Stats{}, err
	}
	return DetectPlan(ctx, r, p, opts)
}

// DetectBlind is Detect through the blind plan of cfg — the streaming
// counterpart of core.DetectBlind.
func DetectBlind(ctx context.Context, r io.Reader, cfg core.Config, opts Options) (*core.DetectResult, Stats, error) {
	p, err := core.CompileBlindPlan(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return DetectPlan(ctx, r, p, opts)
}
