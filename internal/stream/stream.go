// Package stream is WmXML's constant-memory processing layer: it
// watermarks and detects documents too large to materialize, by
// scanning the input with xmltree's byte tokenizer, splitting it at the
// top-level record elements the embedding spec addresses, and feeding
// bounded batches of record subtrees through the existing core
// encoder/decoder with shard-parallel workers.
//
// Why record chunking is sound (and bit-for-bit identical to the
// in-memory path): WmXML's carrier selection is *local*. A bandwidth
// unit's canonical identity is derived from semantics — (kind, scope,
// field, selector value) — never from position, so the keyed decisions
// (selected? which bit? which position?) for a unit are the same
// whether the unit was enumerated from the whole document or from any
// chunk containing its records. Per-record units partition cleanly
// across chunks; FD-canonicalized groups may *span* chunks, but every
// part of the group derives the same identity and therefore receives
// the same bit at the same position — exactly the property that makes
// the scheme robust to redundancy attacks makes it streamable. The
// merge step deduplicates the spanning groups' query records and
// re-sorts them into enumeration order, so even the receipt bytes match
// the in-memory embed.
//
// Peak memory is bounded by chunk_size × (workers + 2) — a chunk per
// worker, the one being scanned and the one being emitted, as the
// hand-offs between them are unbuffered — plus chunks finished ahead of
// a slower predecessor, never by document size. The output is produced
// incrementally through xmltree.StreamSerializer, whose bytes are
// identical to the batch serializer's.
//
// Inputs the chunked path cannot reproduce exactly fall back to the
// in-memory path (correct, just not constant-memory): positional
// identity mode (ordinals are global), ValidateInput (schema validation
// needs the whole document), target scopes directly on the root, and
// query sets whose queries are not chunk-local (positional predicates,
// parent axes). The Stats report says which path ran.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/obs"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// DefaultChunkSize is the records-per-chunk default: large enough to
// amortize per-chunk index construction, small enough that a handful of
// in-flight chunks stay far below any realistic document size.
const DefaultChunkSize = 256

// Options configures the streaming layer.
type Options struct {
	// ChunkSize is the number of record elements per chunk (0 =
	// DefaultChunkSize).
	ChunkSize int
	// Workers bounds the chunk workers running concurrently
	// (0 = min(GOMAXPROCS, 8); 1 = sequential).
	Workers int
	// Parse controls tokenization (depth cap, whitespace, comments) —
	// identical semantics to the in-memory xmltree.Parse.
	Parse xmltree.ParseOptions
}

// serializeOpts renders embed output exactly like wmxml.SerializeXML
// (two-space indent, XML declaration), so the streamed bytes match the
// in-memory pipeline's.
var serializeOpts = xmltree.SerializeOptions{Indent: "  "}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	return o
}

// Stats reports how a streaming call executed.
type Stats struct {
	// Chunks is the number of record chunks processed.
	Chunks int
	// Records is the number of top-level record elements seen.
	Records int
	// Streamed is false when the call fell back to the in-memory path.
	Streamed bool
	// FallbackReason says why the in-memory path ran (empty when
	// Streamed).
	FallbackReason string
}

// plan is the pre-flight analysis of a streaming call: the record
// element set and target order, or the reason chunking is unsound.
type plan struct {
	records  map[string]bool
	targets  []identity.Target
	fallback string // non-empty: must use the in-memory path
}

// buildPlan resolves cfg's targets and derives the record element set:
// the path segment directly below the root of every target scope.
func buildPlan(cfg core.Config) (*plan, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := identity.NewBuilder(cfg.Schema, cfg.Catalog, cfg.Identity)
	targets, err := b.ResolveTargets()
	if err != nil {
		return nil, err
	}
	p := &plan{records: make(map[string]bool), targets: targets}
	if cfg.Identity.Mode == identity.ModePositional {
		p.fallback = "positional identity mode: ordinals are document-global"
		return p, nil
	}
	if len(targets) == 0 {
		p.fallback = "no watermark targets: nothing determines a record element"
		return p, nil
	}
	for _, t := range targets {
		segs := strings.Split(t.Scope, "/")
		if len(segs) < 2 {
			p.fallback = fmt.Sprintf("target scope %q sits on the document root", t.Scope)
			return p, nil
		}
		p.records[segs[1]] = true
	}
	return p, nil
}

// chunkKind discriminates the ordered work units flowing scanner →
// workers → emitter.
type chunkKind uint8

const (
	chunkDocItem chunkKind = iota // one document-level misc node
	chunkRootOpen
	chunkItems // a batch of root children (records + interleaved misc)
	chunkRootClose
)

// chunk is one ordered unit of streamed work.
type chunk struct {
	index   int
	kind    chunkKind
	node    *xmltree.Node   // docItem node / root element
	items   []*xmltree.Node // chunkItems payload, in document order
	records int             // record elements among items

	// worker outputs
	embed *core.EmbedResult
	tally *core.Tally
	err   error
}

// runChunked drives the scanner → worker → in-order collect pipeline
// shared by streaming embed and decode. work is called concurrently on
// chunkItems chunks; emit is called exactly once per chunk in document
// order (including zero-work chunks). A worker failure, an emit
// failure or ctx cancellation stops everything; a parse or read failure
// ends the scan, and the chunks scanned before it still run and are
// emitted before it is returned. No goroutines outlive the call.
func runChunked(parent context.Context, sp *xmltree.StreamParser, recordNames map[string]bool, opts Options,
	work func(c *chunk) error, emit func(c *chunk) error) (*Stats, error) {

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	stats := &Stats{Streamed: true}
	// Unbuffered: a queued chunk is one more chunk alive, and once the
	// tokenizer outpaces the workers the queues only fill.
	workCh := make(chan *chunk)
	doneCh := make(chan *chunk)

	var scanErr error
	var wg sync.WaitGroup

	// Scanner: sequentially reads events, batches root children into
	// chunks of ChunkSize records, forwards everything in order. A panic
	// while reading (the caller's io.Reader) ends the scan like a parse
	// error instead of killing the process.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(workCh)
		defer func() {
			if r := recover(); r != nil {
				scanErr = fmt.Errorf("stream: input scan panicked: %v", r)
			}
		}()
		next := 0
		send := func(c *chunk) bool {
			c.index = next
			next++
			select {
			case workCh <- c:
				return true
			case <-ctx.Done():
				return false
			}
		}
		var cur *chunk
		flush := func() bool {
			if cur == nil {
				return true
			}
			c := cur
			cur = nil
			return send(c)
		}
		for {
			if ctx.Err() != nil {
				return
			}
			ev, err := sp.Next()
			if err != nil {
				// No cancel: what was scanned before the error is still
				// emitted, so the output preceding it is deterministic.
				if !errors.Is(err, io.EOF) {
					scanErr = err
				}
				_ = flush()
				return
			}
			switch ev.Kind {
			case xmltree.EventDocItem:
				if !flush() || !send(&chunk{kind: chunkDocItem, node: ev.Node}) {
					return
				}
			case xmltree.EventRootOpen:
				if !send(&chunk{kind: chunkRootOpen, node: ev.Node}) {
					return
				}
			case xmltree.EventItem:
				if cur == nil {
					cur = &chunk{kind: chunkItems}
				}
				cur.items = append(cur.items, ev.Node)
				if ev.Node.Kind == xmltree.ElementNode && recordNames[ev.Node.Name] {
					cur.records++
				}
				// Cut on the record quota — or on a total-item quota, so
				// a document whose top-level children are mostly (or
				// entirely) non-record items still flushes in bounded
				// batches instead of accumulating to document size.
				// Chunk boundaries never change results (the equivalence
				// suite sweeps them), only memory.
				if cur.records >= opts.ChunkSize || len(cur.items) >= 4*opts.ChunkSize {
					if !flush() {
						return
					}
				}
			case xmltree.EventRootClose:
				if !flush() || !send(&chunk{kind: chunkRootClose}) {
					return
				}
			}
		}
	}()

	// Workers: process chunkItems chunks; everything else passes
	// through untouched. Panics in tree or plug-in code become the
	// chunk's error — a poisoned record must fail the request, not the
	// process (the same isolation the batch pipeline gives documents).
	// When the parent context carries a request trace, each processed
	// chunk emits a "chunk" span (the Trace is goroutine-safe).
	tr := obs.FromContext(parent)
	var wwg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for c := range workCh {
				if c.kind == chunkItems && c.err == nil {
					csp := tr.StartSpan("chunk")
					c.err = guardedWork(work, c)
					csp.End()
				}
				select {
				case doneCh <- c:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wwg.Wait()
		close(doneCh)
	}()

	// Collector (this goroutine): re-establish document order, emit.
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	pending := make(map[int]*chunk)
	nextEmit := 0
	for c := range doneCh {
		pending[c.index] = c
		for {
			n, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			nextEmit++
			if firstErr != nil {
				continue // drain without emitting
			}
			if n.err != nil {
				fail(n.err)
				continue
			}
			if n.kind == chunkItems {
				stats.Chunks++
				stats.Records += n.records
			}
			if err := emit(n); err != nil {
				fail(err)
			}
		}
	}
	wg.Wait()
	// Error precedence: the caller's cancellation is the root cause of
	// anything that failed after it (a cancelled request often truncates
	// its own input mid-token); otherwise the scanner's parse error
	// outranks downstream consequences. Like the batch pipeline,
	// cancellation takes effect between reads and chunks — an in-flight
	// blocking Read or Write finishes (or fails) first, and no goroutine
	// survives the call.
	if err := parent.Err(); err != nil {
		return stats, err
	}
	if scanErr != nil {
		return stats, scanErr
	}
	if firstErr != nil {
		return stats, firstErr
	}
	return stats, nil
}

// guardedWork runs one chunk's work converting panics into the chunk's
// error.
func guardedWork(work func(c *chunk) error, c *chunk) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: chunk %d panicked: %v", c.index, r)
		}
	}()
	return work(c)
}

// skeleton builds the bounded per-chunk document: a fresh document node
// and a shallow clone of the root element (name + attributes, so
// in-scope namespace declarations travel with every chunk) carrying the
// chunk's items as children.
func skeleton(root *xmltree.Node, items []*xmltree.Node) *xmltree.Node {
	rootCl := &xmltree.Node{Kind: xmltree.ElementNode, Name: root.Name}
	if len(root.Attrs) > 0 {
		rootCl.Attrs = append([]xmltree.Attr(nil), root.Attrs...)
	}
	doc := xmltree.NewDocument()
	doc.AppendChild(rootCl)
	for _, it := range items {
		rootCl.AppendChild(it)
	}
	return doc
}

// chunkLocal reports whether q selects the same node multiset when
// evaluated per chunk and unioned as it does on the whole document:
// absolute, downward-only (child/attribute/text axes), no predicates on
// the root step (its child list differs per chunk), every predicate
// position-free, and every nested sub-path relative, downward-only and
// position-free in turn.
func chunkLocal(q *xpath.Query) bool {
	p := q.Path()
	if !p.Absolute || len(p.Steps) == 0 {
		return false
	}
	return pathChunkLocal(p, true)
}

func pathChunkLocal(p xpath.Path, topLevel bool) bool {
	for i, st := range p.Steps {
		switch st.Axis {
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisText:
		default:
			return false // parent/self/descendant cross or blur the chunk boundary
		}
		if topLevel && i == 0 && len(st.Predicates) > 0 {
			return false // root-step predicates see a partial child list
		}
		if !xpath.PositionFreePreds(st.Predicates) {
			return false
		}
		for _, pred := range st.Predicates {
			if !exprChunkLocal(pred) {
				return false
			}
		}
	}
	return true
}

func exprChunkLocal(e xpath.Expr) bool {
	switch x := e.(type) {
	case xpath.PathExpr:
		if x.Path.Absolute {
			return false // re-roots outside the record
		}
		return pathChunkLocal(x.Path, false)
	case xpath.Binary:
		return exprChunkLocal(x.L) && exprChunkLocal(x.R)
	case xpath.Call:
		for _, a := range x.Args {
			if !exprChunkLocal(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}
