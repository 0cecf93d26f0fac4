// Package core implements the WmXML encoder and decoder — the primary
// contribution of the paper (§2.2, figure 4).
//
// The scheme has three phases:
//
//  1. Initialization: a schema, a semantic catalog (keys and FDs), a set
//     of usability query templates, a secret key and a watermark.
//  2. Watermark insertion (Embed): the bandwidth units of the document
//     are enumerated (internal/identity); a keyed HMAC selects roughly
//     1/gamma of them as carriers; each carrier's value receives one
//     watermark bit through the plug-in algorithm for its data type
//     (internal/wa); finally the identifying queries Q are generated and
//     returned for the user to safeguard alongside the key.
//  3. Watermark detection (Detect*): the queries in Q — rewritten for a
//     re-organized document if necessary (internal/rewrite) — retrieve
//     the carrier values; each value votes for its watermark bit; the
//     majority-voted watermark is compared to the expected mark and the
//     match fraction decides detection.
//
// Two detection modes are provided. DetectWithQueries is the paper's
// workflow (the user kept Q). DetectBlind re-derives the carriers from
// the suspect document itself using the schema and catalog, which works
// whenever the suspect document kept the original schema.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/schema"
	"wmxml/internal/semantics"
	"wmxml/internal/wa"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// Config carries everything both the encoder and decoder need.
type Config struct {
	// Key is the secret key. Detection with a different key reads noise.
	Key []byte
	// Mark is the watermark to embed / verify.
	Mark wmark.Bits
	// Gamma is the selection ratio: on average one in Gamma bandwidth
	// units carries a bit. Default 10.
	Gamma int
	// Xi is the number of candidate low-order embedding positions.
	// Default 4.
	Xi int
	// XiByTarget overrides Xi per target field (key: "scope/field" name
	// path, e.g. "library/item/rating"). Small-scale numeric fields need
	// a shallower depth to stay inside the usability tolerance; see the
	// A3 ablation.
	XiByTarget map[string]int
	// Tau is the detection threshold on the bit-match fraction.
	// Default 0.85.
	Tau float64
	// MinCoverage is the minimum fraction of watermark bits that must
	// receive votes for a positive detection. Default 0.5.
	MinCoverage float64
	// Schema describes the document type.
	Schema *schema.Schema
	// Catalog supplies the keys and FDs identities are built from.
	Catalog semantics.Catalog
	// Identity selects targets and identity mode.
	Identity identity.Options
	// ValidateInput, when set, validates the document against Schema
	// before embedding and refuses invalid input.
	ValidateInput bool
	// Concurrency bounds the worker goroutines used for the per-unit
	// work inside Embed, DetectWithQueries and DetectBlind: carrier
	// selection and value writing on the encoder side, query execution
	// and bit extraction on the decoder side. 0 and 1 run sequentially
	// on the calling goroutine; N > 1 uses up to N workers. The result
	// is bit-for-bit identical to a sequential run at any setting:
	// units of distinct targets and of distinct key/FD groups address
	// disjoint tree nodes, and decoder votes merge commutatively.
	Concurrency int
	// DisableIndex turns off the per-document index and compiled query
	// plans, forcing every query through the tree-walking evaluator.
	// Results are bit-for-bit identical either way; the knob exists for
	// benchmarking and the indexed/unindexed equivalence tests.
	DisableIndex bool
}

// WithDefaults returns the configuration with zero-valued knobs
// replaced by their documented defaults (the form every entry point
// normalizes to).
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Validate reports whether the configuration carries the required
// pieces (key, mark, schema).
func (c Config) Validate() error { return c.validate() }

func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = 10
	}
	if c.Xi == 0 {
		c.Xi = 4
	}
	if c.Tau == 0 {
		c.Tau = 0.85
	}
	if c.MinCoverage == 0 {
		c.MinCoverage = 0.5
	}
	return c
}

func (c Config) validate() error {
	if len(c.Key) == 0 {
		return fmt.Errorf("core: secret key is required")
	}
	if len(c.Mark) == 0 {
		return fmt.Errorf("core: watermark is required")
	}
	if c.Schema == nil {
		return fmt.Errorf("core: schema is required")
	}
	return nil
}

func (c Config) selector() (*wmark.Selector, error) {
	return wmark.NewSelector(c.Key, c.Gamma, len(c.Mark), c.Xi)
}

// QueryRecord is one entry of the safeguarded query set Q: the identity
// query addressing a carrier, the canonical identity (HMAC input), the
// value type (which selects the extraction plug-in) and the target the
// carrier belongs to (which selects any per-target embedding depth).
type QueryRecord struct {
	ID     string `json:"id"`
	Query  string `json:"query"`
	Type   string `json:"type"`
	Target string `json:"target,omitempty"`
}

// QuerySetVersion is the current on-disk receipt format version.
// History: version 0 (unmarked) was a bare JSON array of records;
// version 1 wraps the array in an envelope carrying this field, so the
// format can evolve without breaking safeguarded receipts.
const QuerySetVersion = 1

// querySetEnvelope is the versioned on-disk form of Q.
type querySetEnvelope struct {
	Version int           `json:"version"`
	Records []QueryRecord `json:"records"`
}

// MarshalQuerySet renders Q as JSON for safekeeping. A nil record set
// marshals as an empty array, never "null" — the unmarshal side treats
// a missing records field as a wrong file.
func MarshalQuerySet(records []QueryRecord) ([]byte, error) {
	if records == nil {
		records = []QueryRecord{}
	}
	return json.MarshalIndent(querySetEnvelope{Version: QuerySetVersion, Records: records}, "", "  ")
}

// UnmarshalQuerySet parses a JSON query set: the current versioned
// envelope, or the legacy bare-array form, which is accepted and
// treated as version 0 — receipts safeguarded before the envelope
// existed keep working verbatim.
func UnmarshalQuerySet(data []byte) ([]QueryRecord, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var out []QueryRecord
		if err := json.Unmarshal(trimmed, &out); err != nil {
			return nil, fmt.Errorf("core: parse query set: %w", err)
		}
		return out, nil
	}
	// Records is captured raw so an envelope without the field is
	// distinguishable from one carrying an empty (or explicit null)
	// array: a wrong file (or a typo'd "records" key) must fail loudly,
	// not detect against zero queries.
	var env struct {
		Version int             `json:"version"`
		Records json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: parse query set: %w", err)
	}
	if env.Version > QuerySetVersion {
		return nil, fmt.Errorf("core: query set version %d is newer than this build supports (%d)", env.Version, QuerySetVersion)
	}
	if env.Records == nil {
		return nil, fmt.Errorf("core: parse query set: no \"records\" field — not a query set envelope")
	}
	var out []QueryRecord
	if err := json.Unmarshal(env.Records, &out); err != nil {
		return nil, fmt.Errorf("core: parse query set: %w", err)
	}
	return out, nil
}

// EmbedResult reports what insertion did.
type EmbedResult struct {
	// Records is Q — safeguard it with the key.
	Records []QueryRecord
	// Bandwidth is the capacity report from identity enumeration.
	Bandwidth identity.Report
	// Carriers is the number of selected units.
	Carriers int
	// Embedded is the number of physical values written.
	Embedded int
	// Unembeddable counts selected values the plug-in had to skip
	// (value outside the algorithm's domain).
	Unembeddable int
}

// Embed inserts the watermark into doc in place and returns the query
// set Q.
func Embed(doc *xmltree.Node, cfg Config) (*EmbedResult, error) {
	return EmbedIndexed(doc, cfg, nil)
}

// docIndex materializes the shared per-document index: an explicit one
// wins, otherwise one is built unless the config disables indexing. The
// result is nil (untyped) when there is no index, so SelectIndexed
// degrades cleanly.
func docIndex(doc *xmltree.Node, cfg Config, ix *index.Index) xpath.DocIndex {
	if ix == nil && !cfg.DisableIndex {
		ix = index.New(doc)
	}
	if ix == nil {
		return nil
	}
	return ix
}

// EmbedIndexed is Embed reusing a caller-provided document index (built
// over doc). The index's key-value tables are invalidated after the
// value-writing phase, so the caller can keep using it — the pipeline
// shares one index per document across embed and verify. A nil ix
// builds one internally (unless cfg.DisableIndex is set).
func EmbedIndexed(doc *xmltree.Node, cfg Config, ix *index.Index) (*EmbedResult, error) {
	sites, rep, err := EnumerateEmbedSites(doc, cfg, ix)
	if err != nil {
		return nil, err
	}
	res := &EmbedResult{Bandwidth: rep}

	// Phase 1: embed values into the selected carriers. Site selection is
	// the shared enumeration so a precompiled delivery plan and a direct
	// embedding agree site-for-site. Units address disjoint tree nodes
	// (distinct targets are distinct fields; within a target, key
	// instances and FD groups partition the items), so per-site work
	// parallelizes without locks; per-site tallies are indexed by site
	// and folded in order afterwards, keeping the result deterministic.
	type unitEmbed struct {
		wrote, unembeddable int
	}
	tallies := make([]unitEmbed, len(sites))
	forEachWorker(cfg.Concurrency, len(sites), func(_, i int) {
		site := sites[i]
		if site.Alg == nil {
			tallies[i].unembeddable = len(site.Unit.Items)
			return
		}
		bit := cfg.Mark[site.BitIndex]
		for _, item := range site.Unit.Items {
			v := item.Value()
			if !site.Alg.CanEmbed(v) {
				tallies[i].unembeddable++
				continue
			}
			nv, err := site.Alg.Embed(v, bit, site.Params)
			if err != nil {
				tallies[i].unembeddable++
				continue
			}
			item.SetValue(nv)
			tallies[i].wrote++
		}
	})
	var selected []identity.Unit
	for i, t := range tallies {
		res.Unembeddable += t.unembeddable
		if t.wrote > 0 {
			res.Carriers++
			res.Embedded += t.wrote
			selected = append(selected, sites[i].Unit)
		}
	}
	// Embedding changed document values, so the caller's index has stale
	// key-value tables; the structural tables stay valid (value writes do
	// not move elements). An index built internally is already gone.
	ix.Invalidate()

	// Phase 2: generate Q from the post-insertion document (marking can
	// change selector values of det-units). All writes are done, so the
	// rebuilds are read-only and parallelize freely.
	recs := make([]QueryRecord, len(selected))
	forEachWorker(cfg.Concurrency, len(selected), func(_, i int) {
		u := selected[i]
		q, err := u.Rebuild()
		if err != nil {
			// The value became unquotable or the selector vanished;
			// fall back to the pre-embedding query, which still works
			// unless the selector value itself was marked.
			q = u.Query()
		}
		recs[i] = QueryRecord{
			ID:     u.ID,
			Query:  q.String(),
			Type:   u.Type.String(),
			Target: u.Scope + "/" + u.Field,
		}
	})
	if len(recs) > 0 {
		res.Records = recs
	}
	return res, nil
}

// Rewriter adapts a detection query to a re-organized document. The
// rewrite package provides implementations from schema mappings; custom
// implementations can be plugged in.
type Rewriter interface {
	RewriteQuery(q *xpath.Query) (*xpath.Query, error)
}

// DetectResult is a detection outcome.
type DetectResult struct {
	wmark.Result
	// QueriesRun is the number of identity queries executed.
	QueriesRun int
	// QueryMisses counts queries that selected nothing (deleted or
	// unreachable carriers).
	QueryMisses int
	// RewriteErrors counts queries the rewriter could not translate.
	RewriteErrors int
}

// DecodeResult is the raw outcome of one decoding pass: the per-bit
// vote table before it is scored against any particular mark. Tracing
// (internal/fingerprint) decodes a suspect document once and correlates
// the same vote table against every recipient's code, which is what
// makes an N-recipient sweep cost one decode plus N bit comparisons.
type DecodeResult struct {
	// Votes is the per-bit evidence table, sized len(cfg.Mark).
	Votes *wmark.Votes
	// QueriesRun, QueryMisses and RewriteErrors mirror DetectResult.
	QueriesRun, QueryMisses, RewriteErrors int
}

// DetectWithQueries runs the paper's detection: execute the safeguarded
// queries (optionally rewritten through rw) against the suspect document,
// extract one bit per retrieved value, majority-vote and score against
// cfg.Mark. rw may be nil when the suspect document kept the original
// schema.
func DetectWithQueries(doc *xmltree.Node, cfg Config, records []QueryRecord, rw Rewriter) (*DetectResult, error) {
	return DetectWithQueriesIndexed(doc, cfg, records, rw, nil)
}

// DetectWithQueriesIndexed is DetectWithQueries reusing a
// caller-provided document index (built over doc and current — call
// Invalidate/Rebuild after mutating the document). A nil ix builds one
// internally (unless cfg.DisableIndex is set). The index is what makes
// detection near-linear: each identity query resolves through a
// key-value lookup instead of a root-down tree scan.
func DetectWithQueriesIndexed(doc *xmltree.Node, cfg Config, records []QueryRecord, rw Rewriter, ix *index.Index) (*DetectResult, error) {
	dec, err := DecodeWithQueriesIndexed(doc, cfg, records, rw, ix)
	if err != nil {
		return nil, err
	}
	return ScoreDecode(dec, cfg), nil
}

// ScoreDecode turns a decoded vote table into a detection verdict
// against cfg.Mark — the scoring half detection shares with the
// streaming layer, which merges vote tables across chunks before
// scoring once.
func ScoreDecode(dec *DecodeResult, cfg Config) *DetectResult {
	cfg = cfg.withDefaults()
	res := &DetectResult{
		QueriesRun:    dec.QueriesRun,
		QueryMisses:   dec.QueryMisses,
		RewriteErrors: dec.RewriteErrors,
	}
	res.Result = dec.Votes.Score(cfg.Mark, cfg.Tau, cfg.MinCoverage)
	return res
}

// CompiledRecord is one safeguarded query record compiled for decoding:
// the parsed query (rewritten if a Rewriter was supplied), the
// extraction plug-in and the keyed bit assignment. Compiling once and
// executing many times is what lets the streaming decoder run the same
// record against every chunk without recompiling.
type CompiledRecord struct {
	// Record is the source record.
	Record QueryRecord

	alg           wa.Algorithm
	q             *xpath.Query
	bitIndex      int
	params        wa.Params
	rewriteFailed bool
}

// Runnable reports whether the record participates in decoding: its
// type has an extraction plug-in and its query survived rewriting.
func (cr *CompiledRecord) Runnable() bool { return cr.alg != nil && !cr.rewriteFailed }

// RewriteFailed reports whether the rewriter could not translate the
// record's query (the record votes one miss and counts as a rewrite
// error).
func (cr *CompiledRecord) RewriteFailed() bool { return cr.rewriteFailed }

// Query returns the compiled (possibly rewritten) query, nil when the
// record is not runnable.
func (cr *CompiledRecord) Query() *xpath.Query { return cr.q }

// DecodeInto executes the record's query against doc through sc (see
// xpath.Scratch for the aliasing contract: the selected items are
// consumed before sc's next use) and folds one vote (or extraction miss)
// per selected item into v. It returns the number of selected items; the
// zero-selection miss bookkeeping is the caller's, because only the
// caller knows whether "nothing here" is final (whole document) or
// partial (one chunk of many).
func (cr *CompiledRecord) DecodeInto(doc *xmltree.Node, dix xpath.DocIndex, v *wmark.Votes, sc *xpath.Scratch) int {
	items := cr.q.SelectIndexedScratch(doc, dix, sc)
	for _, item := range items {
		bit, ok := cr.alg.Extract(item.Value(), cr.params)
		if !ok {
			v.AddMiss()
			continue
		}
		v.Add(cr.bitIndex, bit)
	}
	return len(items)
}

// CompileRecords compiles a query set for decoding under cfg. Rewriting
// (when rw is non-nil) happens here, once per record. Unparseable types
// and queries are reported lowest-record-first, as a sequential
// left-to-right pass would; rewrite failures are not errors — they mark
// the record RewriteFailed, mirroring detection's tolerance for
// partially translatable query sets.
func CompileRecords(cfg Config, records []QueryRecord, rw Rewriter) ([]CompiledRecord, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sel, err := cfg.selector()
	if err != nil {
		return nil, err
	}
	out := make([]CompiledRecord, len(records))
	errs := make([]error, len(records))
	forEachWorker(cfg.Concurrency, len(records), func(_, i int) {
		rec := records[i]
		out[i].Record = rec
		dt, err := schema.ParseDataType(rec.Type)
		if err != nil {
			errs[i] = fmt.Errorf("core: record %q: %w", rec.ID, err)
			return
		}
		alg := wa.ForType(dt)
		if alg == nil {
			return
		}
		q, err := xpath.Compile(rec.Query)
		if err != nil {
			errs[i] = fmt.Errorf("core: record query %q: %w", rec.Query, err)
			return
		}
		if rw != nil {
			rq, err := rw.RewriteQuery(q)
			if err != nil {
				out[i].rewriteFailed = true
				return
			}
			q = rq
		}
		out[i].alg = alg
		out[i].q = q
		out[i].bitIndex = sel.BitIndex(rec.ID)
		out[i].params = wa.Params{BitPosition: sel.PositionIn(rec.ID, cfg.XiByTarget[rec.Target])}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeWithQueriesIndexed runs the query-execution and bit-extraction
// phase of detection and returns the raw vote table: cfg.Mark supplies
// only the bit length and the keyed bit-index mapping, its values are
// not compared. A nil ix builds an index internally (unless
// cfg.DisableIndex is set).
func DecodeWithQueriesIndexed(doc *xmltree.Node, cfg Config, records []QueryRecord, rw Rewriter, ix *index.Index) (*DecodeResult, error) {
	// Compile-and-throw-away form of the plan API: queries only read the
	// suspect document, so records fan out over workers inside
	// DecodePlan.Decode; each worker accumulates into its own vote
	// counter and the counters merge commutatively, reproducing the
	// sequential tally exactly. Callers decoding the same receipt
	// repeatedly should compile the plan once and keep it.
	plan, err := CompileDecodePlan(cfg, records, rw)
	if err != nil {
		return nil, err
	}
	return plan.Decode(doc, ix), nil
}

// detectAcc is one decoder worker's private tally.
type detectAcc struct {
	votes                                  *wmark.Votes
	queriesRun, queryMisses, rewriteErrors int
}

// detectWorkers caps the decoder worker count at the number of work
// items; <= 1 (including the zero default) stays sequential.
func detectWorkers(concurrency, n int) int {
	w := concurrency
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// mergeAccs folds per-worker tallies into one decode result.
func mergeAccs(accs []*detectAcc) *DecodeResult {
	res := &DecodeResult{
		Votes:         accs[0].votes,
		QueriesRun:    accs[0].queriesRun,
		QueryMisses:   accs[0].queryMisses,
		RewriteErrors: accs[0].rewriteErrors,
	}
	for _, acc := range accs[1:] {
		res.Votes.Merge(acc.votes)
		res.QueriesRun += acc.queriesRun
		res.QueryMisses += acc.queryMisses
		res.RewriteErrors += acc.rewriteErrors
	}
	return res
}

// DetectBlind re-derives the carriers from the suspect document itself
// (no stored Q): it enumerates bandwidth units exactly as the encoder
// did and reads bits from the units the key selects. It requires the
// suspect document to still follow the original schema; value alteration
// only adds vote noise.
func DetectBlind(doc *xmltree.Node, cfg Config) (*DetectResult, error) {
	return DetectBlindIndexed(doc, cfg, nil)
}

// DetectBlindIndexed is DetectBlind reusing a caller-provided document
// index (built over doc and current). A nil ix builds one internally
// (unless cfg.DisableIndex is set).
func DetectBlindIndexed(doc *xmltree.Node, cfg Config, ix *index.Index) (*DetectResult, error) {
	dec, err := DecodeBlindIndexed(doc, cfg, ix)
	if err != nil {
		return nil, err
	}
	return ScoreDecode(dec, cfg), nil
}

// BlindDecoder is the unit-level half of blind detection: given an
// enumerated bandwidth unit, it applies the keyed carrier selection and
// reads the unit's items into a vote table. DecodeBlindIndexed drives
// it over a whole document's units; the streaming layer drives the very
// same code over each chunk's units, which is what keeps the two
// bit-for-bit identical.
type BlindDecoder struct {
	cfg Config
	sel *wmark.Selector
}

// NewBlindDecoder validates cfg and builds the decoder.
func NewBlindDecoder(cfg Config) (*BlindDecoder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sel, err := cfg.selector()
	if err != nil {
		return nil, err
	}
	return &BlindDecoder{cfg: cfg, sel: sel}, nil
}

// Config returns the decoder's defaulted configuration.
func (d *BlindDecoder) Config() Config { return d.cfg }

// DecodeUnit reads one unit: if the key selects it and its type has an
// extraction plug-in, every item votes (or misses) into v. ran reports
// whether the unit participated (it counts as one executed query);
// extracted reports whether at least one item yielded a bit (a
// participating unit with none is a query miss — but for a unit split
// across chunks only the caller can total that across its parts).
func (d *BlindDecoder) DecodeUnit(u identity.Unit, v *wmark.Votes) (ran, extracted bool) {
	s, ok := carrier(u, d.sel, d.cfg.XiByTarget)
	if !ok || s.Alg == nil {
		return false, false
	}
	for _, item := range u.Items {
		bit, ok := s.Alg.Extract(item.Value(), s.Params)
		if !ok {
			v.AddMiss()
			continue
		}
		v.Add(s.BitIndex, bit)
		extracted = true
	}
	return true, extracted
}

// DecodeBlindIndexed is the blind counterpart of
// DecodeWithQueriesIndexed: it re-derives the carriers from the suspect
// document itself and returns the raw vote table unscored.
func DecodeBlindIndexed(doc *xmltree.Node, cfg Config, ix *index.Index) (*DecodeResult, error) {
	dec, err := NewBlindDecoder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = dec.cfg
	dix := docIndex(doc, cfg, ix)
	builder := identity.NewBuilder(cfg.Schema, cfg.Catalog, cfg.Identity)
	units, _, err := builder.UnitsIndexed(doc, dix)
	if err != nil {
		return nil, err
	}
	// Blind detection only reads the document, so units fan out over
	// workers exactly like query records do in DetectWithQueries. Extra
	// workers' vote tables come from the pool (worker 0's becomes the
	// result and must stay fresh).
	workers := detectWorkers(cfg.Concurrency, len(units))
	accs := make([]*detectAcc, workers)
	for w := range accs {
		if w == 0 {
			accs[w] = &detectAcc{votes: wmark.NewVotes(len(cfg.Mark))}
		} else {
			v := votesPool.Get().(*wmark.Votes)
			v.Reset(len(cfg.Mark))
			accs[w] = &detectAcc{votes: v}
		}
	}
	forEachWorker(workers, len(units), func(worker, i int) {
		acc := accs[worker]
		ran, extracted := dec.DecodeUnit(units[i], acc.votes)
		if !ran {
			return
		}
		acc.queriesRun++
		if !extracted {
			acc.queryMisses++
		}
	})
	res := mergeAccs(accs)
	for w := 1; w < len(accs); w++ {
		votesPool.Put(accs[w].votes)
	}
	return res, nil
}
