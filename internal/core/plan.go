package core

// DecodePlan is the one decoder. It is compiled once, from a receipt's
// query set or, for blind detection, from the configuration alone, and
// decodes any number of documents. A receipt plan moves query parsing,
// rewriting and the per-record HMACs into compilation, which leaves a
// warm decode one index lookup and one bit extraction per record,
// through pooled buffers: it allocates little beyond the vote table it
// returns, which outlives the call because tracing correlates it
// against every recipient's code.
//
// A plan also decodes a document in parts that share no record element
// (DecodePart). The parts' tallies merge, in any order, into exactly
// the decode of the whole document, because a query's answer depends
// only on the records it names. The one rule that needs the whole
// document — a record, or an FD group spanning parts, misses only if no
// part selected it — is applied once, by Tally.Result, which Decode
// goes through too; the streaming layer only splits and merges.
//
// A DecodePlan is immutable after compilation and safe for concurrent
// use.

import (
	"fmt"
	"iter"
	"sync"

	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/obs"
	"wmxml/internal/schema"
	"wmxml/internal/wa"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// DecodePlan is a compiled decoder bound to its configuration. Build it
// with CompileDecodePlan or CompileBlindPlan.
type DecodePlan struct {
	cfg     Config
	sel     *wmark.Selector
	records []record          // receipt plan: the compiled query set
	units   *identity.Builder // blind plan: the unit enumeration; nil for a receipt plan
}

// record is one query record compiled for decoding. q is nil when the
// record does not run: its type has no extraction plug-in, or the
// rewriter could not translate it.
type record struct {
	q             *xpath.Query
	alg           wa.Algorithm
	bitIndex      int
	params        wa.Params
	rewriteFailed bool
}

// CompileDecodePlan validates cfg and compiles the query set once:
// parsing, rewriting (when rw is non-nil), plug-in resolution and keyed
// bit assignment. The first unparseable type or query, in record order,
// is the error. A query the rewriter cannot translate is not: the
// record counts as a rewrite error at every decode, so a partially
// translatable query set still detects.
func CompileDecodePlan(cfg Config, records []QueryRecord, rw Rewriter) (*DecodePlan, error) {
	cfg, sel, err := cfg.keyed()
	if err != nil {
		return nil, err
	}
	p := &DecodePlan{cfg: cfg, sel: sel, records: make([]record, len(records))}
	for i, rec := range records {
		dt, err := schema.ParseDataType(rec.Type)
		if err != nil {
			return nil, fmt.Errorf("core: record %q: %w", rec.ID, err)
		}
		alg := wa.ForType(dt)
		if alg == nil {
			continue
		}
		q, err := xpath.Compile(rec.Query)
		if err != nil {
			return nil, fmt.Errorf("core: record query %q: %w", rec.Query, err)
		}
		if rw != nil {
			if q, err = rw.RewriteQuery(q); err != nil {
				p.records[i].rewriteFailed = true
				continue
			}
		}
		p.records[i] = record{
			q:        q,
			alg:      alg,
			bitIndex: sel.BitIndex(rec.ID),
			params:   wa.Params{BitPosition: sel.PositionIn(rec.ID, cfg.XiByTarget[rec.Target])},
		}
	}
	return p, nil
}

// CompileBlindPlan validates cfg and returns the blind plan, which
// re-derives the carriers from each suspect document (no stored Q): it
// enumerates bandwidth units exactly as the encoder did and reads the
// units the key selects. The suspect must still follow the original
// schema. Enumeration errors depend only on the configuration, so
// enumerating an empty document here reports every one a decode could
// meet.
func CompileBlindPlan(cfg Config) (*DecodePlan, error) {
	cfg, sel, err := cfg.keyed()
	if err != nil {
		return nil, err
	}
	units := identity.NewBuilder(cfg.Schema, cfg.Catalog, cfg.Identity)
	if _, _, err := units.Units(xmltree.NewDocument()); err != nil {
		return nil, err
	}
	return &DecodePlan{cfg: cfg, sel: sel, units: units}, nil
}

// Config returns the plan's defaulted configuration.
func (p *DecodePlan) Config() Config { return p.cfg }

// Queries yields the compiled (possibly rewritten) query of every
// record that runs, in record order. A blind plan has none.
func (p *DecodePlan) Queries() iter.Seq[*xpath.Query] {
	return func(yield func(*xpath.Query) bool) {
		for i := range p.records {
			if q := p.records[i].q; q != nil && !yield(q) {
				return
			}
		}
	}
}

// Tally is the decode of one part of a document before its misses are
// decided: the votes its items cast and which records or units yielded
// anything.
type Tally struct {
	p     *DecodePlan
	votes *wmark.Votes
	// hit has bit i set once record i selected an item.
	hit []uint64
	// ran and missed count the per-record units read and those that
	// yielded no bit. groups maps each FD group's identity to whether
	// it yielded a bit: a per-record unit lies in one part, an FD group
	// may span several.
	ran, missed int
	groups      map[string]bool
}

// NewTally returns the tally of an empty part, to merge parts into.
func (p *DecodePlan) NewTally() *Tally {
	t := new(Tally)
	p.reset(t)
	return t
}

// reset empties t for p, keeping its bitset and group map.
func (p *DecodePlan) reset(t *Tally) {
	t.p = p
	t.votes = wmark.NewVotes(len(p.cfg.Mark))
	n := (len(p.records) + 63) / 64
	if cap(t.hit) < n {
		t.hit = make([]uint64, n)
	}
	t.hit = t.hit[:n]
	clear(t.hit)
	t.ran, t.missed = 0, 0
	clear(t.groups)
}

// scratchPool recycles xpath evaluation buffers (a Scratch serves one
// goroutine at a time). tallyPool recycles Decode's tallies; the vote
// table always leaves with the result.
var (
	scratchPool = sync.Pool{New: func() any { return new(xpath.Scratch) }}
	tallyPool   = sync.Pool{New: func() any { return new(Tally) }}
)

// Decode executes the plan against doc and returns the raw vote table:
// the plan's mark supplies only the bit length and the keyed bit
// assignment, its values are not compared. ix must be an index over
// doc, or nil to build one per call unless the configuration disables
// indexing; pass the cached index to stay on the low-allocation path.
func (p *DecodePlan) Decode(doc *xmltree.Node, ix *index.Index) *DecodeResult {
	t := tallyPool.Get().(*Tally)
	p.reset(t)
	p.decode(doc, ix, t)
	res := t.Result()
	t.p, t.votes = nil, nil
	tallyPool.Put(t)
	return res
}

// DecodePart decodes one part of a document (a document holding some
// of its record elements under a copy of the root) into a new tally.
// ix is as for Decode.
func (p *DecodePlan) DecodePart(doc *xmltree.Node, ix *index.Index) *Tally {
	t := p.NewTally()
	p.decode(doc, ix, t)
	return t
}

func (p *DecodePlan) decode(doc *xmltree.Node, ix *index.Index, t *Tally) {
	dix := docIndex(doc, p.cfg, ix)
	if p.units != nil {
		p.decodeUnits(doc, dix, t)
		return
	}
	sc := scratchPool.Get().(*xpath.Scratch)
	for i := range p.records {
		r := &p.records[i]
		if r.q == nil {
			continue
		}
		// The items alias sc until its next use.
		items := r.q.SelectIndexedScratch(doc, dix, sc)
		if len(items) > 0 {
			t.hit[i/64] |= 1 << (i % 64)
		}
		for _, item := range items {
			t.extract(r.alg, r.params, r.bitIndex, item)
		}
	}
	scratchPool.Put(sc)
}

func (p *DecodePlan) decodeUnits(doc *xmltree.Node, dix xpath.DocIndex, t *Tally) {
	units, _, err := p.units.UnitsIndexed(doc, dix)
	if err != nil {
		// CompileBlindPlan enumerated under the same configuration, and
		// nothing else makes enumeration fail.
		panic("core: blind enumeration failed after its plan compiled: " + err.Error())
	}
	for _, u := range units {
		s, ok := carrier(u, p.sel, p.cfg.XiByTarget)
		if !ok || s.Alg == nil {
			continue
		}
		got := false
		for _, item := range u.Items {
			got = t.extract(s.Alg, s.Params, s.BitIndex, item) || got
		}
		if u.GroupValue != "" {
			t.addGroup(u.ID, got)
			continue
		}
		t.ran++
		if !got {
			t.missed++
		}
	}
}

// extract votes item's bit, or a miss when the value carries none, and
// reports whether it read a bit.
func (t *Tally) extract(alg wa.Algorithm, params wa.Params, bitIndex int, item xpath.Item) bool {
	bit, ok := alg.Extract(item.Value(), params)
	if !ok {
		t.votes.AddMiss()
		return false
	}
	t.votes.Add(bitIndex, bit)
	return true
}

func (t *Tally) addGroup(id string, got bool) {
	if t.groups == nil {
		t.groups = make(map[string]bool)
	}
	t.groups[id] = t.groups[id] || got
}

// Merge folds o into t. o must be a tally of the same plan, from a part
// sharing no record element with the parts already in t.
func (t *Tally) Merge(o *Tally) {
	t.votes.Merge(o.votes)
	for i, w := range o.hit {
		t.hit[i] |= w
	}
	t.ran += o.ran
	t.missed += o.missed
	for id, got := range o.groups {
		t.addGroup(id, got)
	}
}

// Result decides the misses and returns the decode of the parts merged
// into t, which it consumes. A record, or an FD group spanning parts,
// misses only if no part selected it. A receipt record that selected
// nothing counts a query miss and a vote miss, one the rewriter could
// not translate a rewrite error and a vote miss; a blind unit or group
// that yielded no bit counts a query miss.
func (t *Tally) Result() *DecodeResult {
	res := &DecodeResult{Votes: t.votes, QueriesRun: t.ran + len(t.groups), QueryMisses: t.missed}
	for _, got := range t.groups {
		if !got {
			res.QueryMisses++
		}
	}
	for i := range t.p.records {
		switch r := &t.p.records[i]; {
		case r.rewriteFailed:
			res.RewriteErrors++
			res.Votes.AddMiss()
		case r.q == nil:
			// No extraction plug-in for the type: the record is inert.
		default:
			res.QueriesRun++
			if t.hit[i/64]&(1<<(i%64)) == 0 {
				res.QueryMisses++
				res.Votes.AddMiss()
			}
		}
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
