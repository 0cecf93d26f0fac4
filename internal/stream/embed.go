package stream

// Streaming embed: scan → chunk → embed each chunk through the core
// encoder → serialize in document order, with the receipt merged back
// into enumeration order so its bytes match the in-memory embed's.

import (
	"context"
	"io"
	"sort"
	"strings"

	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/xmltree"
)

// EmbedResult is a streaming embed's outcome: the merged core receipt
// plus execution stats.
type EmbedResult struct {
	*core.EmbedResult
	Stats Stats
}

// EmbedFallbackReason reports why streamed embedding of documents
// under cfg would take the in-memory path ("" when the chunked path
// runs). Servers use it to refuse stream-sized bodies that would
// silently materialize.
func EmbedFallbackReason(cfg core.Config) (string, error) {
	p, err := buildPlan(cfg)
	if err != nil {
		return "", err
	}
	if cfg.ValidateInput {
		return "ValidateInput: schema validation needs the whole document", nil
	}
	return p.fallback, nil
}

// DetectFallbackReason is EmbedFallbackReason for streamed detection
// with the given query set (nil records = blind).
func DetectFallbackReason(cfg core.Config, records []core.QueryRecord, rw core.Rewriter) (string, error) {
	p, err := buildPlan(cfg)
	if err != nil {
		return "", err
	}
	if p.fallback != "" {
		return p.fallback, nil
	}
	if records == nil {
		return "", nil
	}
	compiled, err := core.CompileRecords(cfg, records, rw)
	if err != nil {
		return "", err
	}
	for i := range compiled {
		if compiled[i].Runnable() && !chunkLocal(compiled[i].Query()) {
			return "query set is not chunk-local (positional or upward-looking query)", nil
		}
	}
	return "", nil
}

// Embed reads an XML document from r, embeds the watermark under cfg,
// and writes the marked document to w — byte-identical to parsing the
// whole document, running core.Embed and serializing with the same
// options, but with peak memory bounded by chunk size × workers instead
// of document size. Configurations the chunked path cannot reproduce
// exactly fall back to the in-memory path (Stats says which ran).
func Embed(ctx context.Context, r io.Reader, w io.Writer, cfg core.Config, opts Options) (*EmbedResult, error) {
	opts = opts.withDefaults()
	p, err := buildPlan(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.ValidateInput {
		p.fallback = "ValidateInput: schema validation needs the whole document"
	}
	if p.fallback != "" {
		return embedSlurp(ctx, r, w, cfg, opts, p.fallback)
	}

	sp := xmltree.NewStreamParser(r, opts.Parse)
	ss := xmltree.NewStreamSerializer(w, serializeOpts)

	var perChunk []*core.EmbedResult // indexed sparsely by emit order
	work := func(c *chunk) error {
		if c.records == 0 {
			return nil // nothing to embed; items pass straight through
		}
		doc := skeleton(sp.Root(), c.items)
		res, err := core.EmbedIndexed(doc, cfg, nil)
		if err != nil {
			return err
		}
		c.embed = res
		return nil
	}
	emit := func(c *chunk) error {
		switch c.kind {
		case chunkDocItem:
			ss.WriteDocItem(c.node)
		case chunkRootOpen:
			ss.OpenElement(c.node)
		case chunkItems:
			if c.embed != nil {
				perChunk = append(perChunk, c.embed)
			}
			for _, it := range c.items {
				ss.WriteChild(it)
			}
		case chunkRootClose:
			ss.CloseElement()
		}
		return ss.Err()
	}
	stats, err := runChunked(ctx, sp, p.records, opts, work, emit)
	if err != nil {
		return nil, err
	}
	if err := ss.Finish(); err != nil {
		return nil, err
	}
	return &EmbedResult{
		EmbedResult: mergeEmbedResults(p.targets, perChunk),
		Stats:       *stats,
	}, nil
}

// embedSlurp is the in-memory fallback: parse everything, embed once,
// serialize once — identical output by construction.
func embedSlurp(ctx context.Context, r io.Reader, w io.Writer, cfg core.Config, opts Options, reason string) (*EmbedResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	doc, err := xmltree.Parse(r, opts.Parse)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.Embed(doc, cfg)
	if err != nil {
		return nil, err
	}
	if err := xmltree.Serialize(w, doc, serializeOpts); err != nil {
		return nil, err
	}
	return &EmbedResult{
		EmbedResult: res,
		Stats:       Stats{FallbackReason: reason},
	}, nil
}

// recordKind extracts the unit kind ("key", "fd", "det", "pos") from a
// canonical identity string.
func recordKind(id string) string {
	if i := strings.IndexByte(id, '\x1f'); i >= 0 {
		return id[:i]
	}
	return ""
}

// recordGroupValue extracts the selector/group value — the last
// field — from a canonical identity string.
func recordGroupValue(id string) string {
	if i := strings.LastIndexByte(id, '\x1f'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// mergeEmbedResults folds per-chunk embed results into one receipt in
// the exact order the in-memory encoder enumerates:
//
//   - targets in resolution order (the chunk results are each
//     target-major already);
//   - within a target, key units in instance (= chunk concatenation)
//     order;
//   - within an FD-grouped target, one record per group sorted by group
//     value — groups spanning chunks produced one identical record per
//     chunk, which deduplicate here.
//
// Counts sum exactly except Bandwidth.Units/FDGroups/PhysicalItems,
// where an FD group spanning k chunks is counted k times (the
// enumeration never sees the whole group at once); Carriers and Records
// are exact because spanning groups collapse during the merge.
func mergeEmbedResults(targets []identity.Target, chunks []*core.EmbedResult) *core.EmbedResult {
	out := &core.EmbedResult{}
	out.Bandwidth.Targets = targets
	out.Bandwidth.Skipped = make(map[string]int)
	byTarget := make(map[string][]core.QueryRecord, len(targets))
	var extra []core.QueryRecord // records whose target is not in the resolved list (defensive)
	known := make(map[string]bool, len(targets))
	for _, t := range targets {
		known[t.String()] = true
	}
	for _, ch := range chunks {
		out.Bandwidth.Units += ch.Bandwidth.Units
		out.Bandwidth.FDGroups += ch.Bandwidth.FDGroups
		out.Bandwidth.PhysicalItems += ch.Bandwidth.PhysicalItems
		for k, v := range ch.Bandwidth.Skipped {
			out.Bandwidth.Skipped[k] += v
		}
		out.Embedded += ch.Embedded
		out.Unembeddable += ch.Unembeddable
		for _, rec := range ch.Records {
			if known[rec.Target] {
				byTarget[rec.Target] = append(byTarget[rec.Target], rec)
			} else {
				extra = append(extra, rec)
			}
		}
	}
	var merged []core.QueryRecord
	for _, t := range targets {
		recs := byTarget[t.String()]
		if len(recs) == 0 {
			continue
		}
		if k := recordKind(recs[0].ID); k == "fd" || k == "det" {
			seen := make(map[string]bool, len(recs))
			uniq := recs[:0]
			for _, rec := range recs {
				if seen[rec.ID] {
					continue
				}
				seen[rec.ID] = true
				uniq = append(uniq, rec)
			}
			sort.SliceStable(uniq, func(i, j int) bool {
				return recordGroupValue(uniq[i].ID) < recordGroupValue(uniq[j].ID)
			})
			recs = uniq
		}
		merged = append(merged, recs...)
	}
	merged = append(merged, extra...)
	if len(merged) > 0 {
		out.Records = merged
	}
	out.Carriers = len(merged)
	return out
}
