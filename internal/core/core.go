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

// keyed is the prologue of embedding and decoding alike: it returns
// the defaulted configuration, validated, and its keyed selector.
func (c Config) keyed() (Config, *wmark.Selector, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return c, nil, err
	}
	sel, err := wmark.NewSelector(c.Key, c.Gamma, len(c.Mark), c.Xi)
	return c, sel, err
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
	// the shared enumeration, so a precompiled delivery plan and a direct
	// embedding agree site for site.
	var selected []identity.Unit
	for _, site := range sites {
		if site.Alg == nil {
			res.Unembeddable += len(site.Unit.Items)
			continue
		}
		bit := cfg.Mark[site.BitIndex]
		wrote := 0
		for _, item := range site.Unit.Items {
			v := item.Value()
			if !site.Alg.CanEmbed(v) {
				res.Unembeddable++
				continue
			}
			nv, err := site.Alg.Embed(v, bit, site.Params)
			if err != nil {
				res.Unembeddable++
				continue
			}
			item.SetValue(nv)
			wrote++
		}
		if wrote > 0 {
			res.Carriers++
			res.Embedded += wrote
			selected = append(selected, site.Unit)
		}
	}
	// Embedding changed document values, so the caller's index has stale
	// key-value tables; the structural tables stay valid (value writes do
	// not move elements). An index built internally is already gone.
	ix.Invalidate()

	// Phase 2: generate Q from the post-insertion document (marking can
	// change selector values of det-units), so it starts once every
	// value is written.
	recs := make([]QueryRecord, len(selected))
	for i, u := range selected {
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
	}
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
// schema. It compiles a plan for one use; callers decoding the same
// receipt repeatedly should keep the plan.
func DetectWithQueries(doc *xmltree.Node, cfg Config, records []QueryRecord, rw Rewriter) (*DetectResult, error) {
	p, err := CompileDecodePlan(cfg, records, rw)
	if err != nil {
		return nil, err
	}
	return p.Detect(doc, nil), nil
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

// DetectBlind re-derives the carriers from the suspect document itself
// (no stored Q) through a blind plan compiled for one use; see
// CompileBlindPlan.
func DetectBlind(doc *xmltree.Node, cfg Config) (*DetectResult, error) {
	p, err := CompileBlindPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.Detect(doc, nil), nil
}
