package wmxml

import (
	"context"
	"fmt"
	"io"

	"wmxml/internal/attack"
	"wmxml/internal/baseline"
	"wmxml/internal/config"
	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/deliver"
	"wmxml/internal/fingerprint"
	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/rewrite"
	"wmxml/internal/schema"
	"wmxml/internal/semantics"
	"wmxml/internal/stream"
	"wmxml/internal/structwm"
	"wmxml/internal/usability"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// Re-exported types. The library's working types live in internal
// packages (one per subsystem, see DESIGN.md); these aliases form the
// public surface so that downstream code imports only this package.
type (
	// Document is a mutable XML DOM node; documents parse to a node of
	// kind DocumentNode.
	Document = xmltree.Node
	// Schema declares the document structure and value types.
	Schema = schema.Schema
	// ElementDecl is one element declaration within a Schema.
	ElementDecl = schema.ElementDecl
	// Catalog bundles the semantic constraints (keys and FDs).
	Catalog = semantics.Catalog
	// Key declares a key constraint (Scope, KeyPath).
	Key = semantics.Key
	// FD declares a functional dependency (Scope, Determinant, Dependent).
	FD = semantics.FD
	// Mapping relates two layouts of the same records for
	// re-organization and query rewriting.
	Mapping = rewrite.Mapping
	// QueryRecord is one safeguarded identity query (an entry of Q).
	QueryRecord = core.QueryRecord
	// Query is a compiled XPath-subset expression.
	Query = xpath.Query
	// Bits is a watermark bit string.
	Bits = wmark.Bits
	// Dataset is a generated workload with schema, catalog, targets and
	// usability templates.
	Dataset = datagen.Dataset
	// Attack transforms a document adversarially.
	Attack = attack.Attack
	// UsabilityMeter measures template correctness against an original.
	UsabilityMeter = usability.Meter
	// UsabilityScore is a usability measurement.
	UsabilityScore = usability.Score
	// Rewriter rewrites queries across a schema mapping.
	Rewriter = core.Rewriter
	// ParseOptions controls XML parsing (whitespace, comments,
	// processing instructions, depth limit).
	ParseOptions = xmltree.ParseOptions
	// DocumentIndex is a per-document query accelerator: build it once
	// over a document and pass it to the *Indexed methods to share the
	// cost across many detections. See internal/index for the
	// invalidation contract.
	DocumentIndex = index.Index
)

// Re-exported data types for schema declarations.
const (
	TypeString  = schema.TypeString
	TypeInteger = schema.TypeInteger
	TypeDecimal = schema.TypeDecimal
	TypeImage   = schema.TypeImage
	TypeNone    = schema.TypeNone
)

// ParseXML reads an XML document into a mutable DOM with default
// options (whitespace-only text, comments and processing instructions
// dropped).
func ParseXML(r io.Reader) (*Document, error) {
	return xmltree.Parse(r, xmltree.ParseOptions{})
}

// ParseXMLWithOptions reads an XML document into a mutable DOM with
// explicit parse options.
func ParseXMLWithOptions(r io.Reader, opts ParseOptions) (*Document, error) {
	return xmltree.Parse(r, opts)
}

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Document, error) {
	return xmltree.ParseString(s)
}

// ParseXMLBytes parses an XML document from an in-memory byte slice. It
// runs the same byte tokenizer (interned names, slab-allocated nodes)
// and encoding/xml hand-off as ParseXMLWithOptions, without copying the
// input into a read window, so the tree and any error are identical to
// ParseXMLWithOptions on the same bytes. The tree never aliases data.
func ParseXMLBytes(data []byte, opts ParseOptions) (*Document, error) {
	return xmltree.ParseBytes(data, opts)
}

// SerializeXML renders a document as pretty-printed XML.
func SerializeXML(w io.Writer, doc *Document) error {
	return xmltree.Serialize(w, doc, xmltree.SerializeOptions{Indent: "  "})
}

// SerializeXMLString renders a document as a pretty-printed XML string.
func SerializeXMLString(doc *Document) string {
	return xmltree.SerializeIndentString(doc)
}

// CompileQuery compiles an XPath-subset expression.
func CompileQuery(src string) (*Query, error) { return xpath.Compile(src) }

// InferSchema derives a schema from a document instance, as a starting
// point for the user to refine.
func InferSchema(name string, doc *Document) *Schema {
	return schema.Infer(name, doc)
}

// DiscoverKeys proposes key constraints supported by the document.
func DiscoverKeys(doc *Document, s *Schema) ([]Key, error) {
	return semantics.DiscoverKeys(doc, s, 2)
}

// DiscoverFDs proposes functional dependencies supported by the
// document, most-redundancy first.
func DiscoverFDs(doc *Document, s *Schema) ([]FD, error) {
	found, err := semantics.DiscoverFDs(doc, s, 2)
	if err != nil {
		return nil, err
	}
	out := make([]FD, len(found))
	for i, d := range found {
		out[i] = d.FD
	}
	return out, nil
}

// Options configures a watermarking System.
type Options struct {
	// Key is the secret key; required.
	Key string
	// Mark is the watermark message (text); required unless MarkBits is
	// set.
	Mark string
	// MarkBits overrides Mark with explicit bits.
	MarkBits Bits
	// Schema describes the documents to be watermarked; required.
	Schema *Schema
	// Catalog supplies keys and FDs; at least one key is needed for
	// semantic identities.
	Catalog Catalog
	// Targets are the watermark-carrying fields as name paths
	// ("db/book/year", "db/book/@publisher"). Empty auto-derives from
	// the schema and catalog.
	Targets []string
	// Gamma is the selection ratio (default 10): about 1 in Gamma
	// bandwidth units carries a bit.
	Gamma int
	// Xi is the number of candidate low-order embedding positions
	// (default 4). Larger xi hides bits better but perturbs more.
	Xi int
	// XiByTarget overrides Xi per target ("scope/field" name path) so
	// small-scale fields can carry bits at a shallower, still
	// imperceptible depth.
	XiByTarget map[string]int
	// Tau is the detection match threshold (default 0.85).
	Tau float64
	// MinCoverage is the minimum fraction of mark bits that must receive
	// votes for detection (default 0.5).
	MinCoverage float64
	// DisableFDs switches off FD canonicalization (exposes the
	// redundancy-removal weakness; for ablations only).
	DisableFDs bool
	// ValidateInput validates documents against Schema before embedding.
	ValidateInput bool
	// DisableIndex turns off the per-document index and compiled query
	// plans, forcing every query through the tree-walking evaluator.
	// Results are bit-for-bit identical either way; for benchmarking
	// and equivalence testing only.
	DisableIndex bool
}

// System embeds and detects watermarks for one document type.
type System struct {
	cfg core.Config
}

// New builds a System from Options.
func New(opts Options) (*System, error) {
	if opts.Key == "" {
		return nil, fmt.Errorf("wmxml: Options.Key is required")
	}
	mark := opts.MarkBits
	if len(mark) == 0 {
		if opts.Mark == "" {
			return nil, fmt.Errorf("wmxml: Options.Mark or Options.MarkBits is required")
		}
		mark = wmark.FromText(opts.Mark)
	}
	if opts.Schema == nil {
		return nil, fmt.Errorf("wmxml: Options.Schema is required")
	}
	cfg := core.Config{
		Key:         []byte(opts.Key),
		Mark:        mark,
		Gamma:       opts.Gamma,
		Xi:          opts.Xi,
		XiByTarget:  opts.XiByTarget,
		Tau:         opts.Tau,
		MinCoverage: opts.MinCoverage,
		Schema:      opts.Schema,
		Catalog:     opts.Catalog,
		Identity: identity.Options{
			Targets:    opts.Targets,
			DisableFDs: opts.DisableFDs,
		},
		ValidateInput: opts.ValidateInput,
		DisableIndex:  opts.DisableIndex,
	}
	return &System{cfg: cfg}, nil
}

// EmbedReceipt is returned by Embed: the query set Q to safeguard with
// the key, plus capacity statistics.
type EmbedReceipt struct {
	// Records is Q, the identifying queries (paper §2.2 step 1:
	// "safeguard the set of queries … along with the secret key").
	Records []QueryRecord
	// BandwidthUnits is the document's usable watermark bandwidth.
	BandwidthUnits int
	// Carriers is the number of selected units.
	Carriers int
	// ValuesWritten is the number of physical values modified.
	ValuesWritten int
}

func toReceipt(res *core.EmbedResult) *EmbedReceipt {
	return &EmbedReceipt{
		Records:        res.Records,
		BandwidthUnits: res.Bandwidth.Units,
		Carriers:       res.Carriers,
		ValuesWritten:  res.Embedded,
	}
}

// Embed inserts the watermark into doc in place and returns the receipt.
func (s *System) Embed(doc *Document) (*EmbedReceipt, error) {
	res, err := core.Embed(doc, s.cfg)
	if err != nil {
		return nil, err
	}
	return toReceipt(res), nil
}

// Detection is the outcome of a detection pass.
type Detection struct {
	// Detected reports whether the watermark was found (match >= tau and
	// coverage >= MinCoverage).
	Detected bool
	// MatchFraction is the fraction of voted watermark bits whose
	// majority equals the expected bit.
	MatchFraction float64
	// Coverage is the fraction of watermark bits that received votes.
	Coverage float64
	// RecoveredText decodes the majority-voted bits as text (only
	// meaningful when the mark was text and coverage is high).
	RecoveredText string
	// Sigma is the standard score of the match under the coin-flip null
	// hypothesis: how implausible this match is by chance.
	Sigma float64
	// FalsePositiveRate is the analytic probability that a random mark
	// would match at least this well on the voted bits.
	FalsePositiveRate float64
	// QueriesRun and QueryMisses report identity-query execution.
	QueriesRun, QueryMisses int
}

func toDetection(r *core.DetectResult) *Detection {
	return &Detection{
		Detected:          r.Detected,
		MatchFraction:     r.MatchFraction,
		Coverage:          r.Coverage,
		RecoveredText:     r.Recovered.Text(),
		Sigma:             r.Sigma(),
		FalsePositiveRate: r.FalsePositiveRate(),
		QueriesRun:        r.QueriesRun,
		QueryMisses:       r.QueryMisses,
	}
}

// Detect runs the paper's detection: execute the safeguarded queries
// against the suspect document and compare the majority-voted bits with
// the expected mark. rw may be nil when the suspect kept the original
// schema; pass NewRewriter(mapping) after a re-organization.
func (s *System) Detect(doc *Document, records []QueryRecord, rw Rewriter) (*Detection, error) {
	return s.DetectIndexed(doc, records, rw, nil)
}

// DetectBlind re-derives the carriers from the suspect document itself
// (no stored Q); it requires the document to still follow the original
// schema.
func (s *System) DetectBlind(doc *Document) (*Detection, error) {
	return s.DetectBlindIndexed(doc, nil)
}

// NewDocumentIndex builds a query-acceleration index over a document in
// one pass. Detect and DetectBlind already build one internally per
// call; build one explicitly to amortize it across multiple detections
// on the same document (e.g. checking several marks or keys), and pass
// it to the *Indexed methods. After mutating the document's values call
// Invalidate on the index; after structural changes call Rebuild.
func NewDocumentIndex(doc *Document) *DocumentIndex { return index.New(doc) }

// DetectIndexed is Detect reusing a caller-built document index over
// doc.
func (s *System) DetectIndexed(doc *Document, records []QueryRecord, rw Rewriter, ix *DocumentIndex) (*Detection, error) {
	p, err := core.CompileDecodePlan(s.cfg, records, rw)
	if err != nil {
		return nil, err
	}
	return toDetection(p.Detect(doc, ix)), nil
}

// DetectBlindIndexed is DetectBlind reusing a caller-built document
// index over doc.
func (s *System) DetectBlindIndexed(doc *Document, ix *DocumentIndex) (*Detection, error) {
	p, err := core.CompileBlindPlan(s.cfg)
	if err != nil {
		return nil, err
	}
	return toDetection(p.Detect(doc, ix)), nil
}

// DetectionPlan is the compile-once / detect-many form of Detect: the
// safeguarded query set is parsed, rewritten and keyed exactly once at
// compile time, so each DetectIndexed call pays only the per-document
// work (index lookups and bit extraction) through pooled internal
// buffers. On a cached document index the warm path allocates close to
// nothing beyond the returned verdict. A plan is immutable and safe
// for concurrent use from any number of goroutines.
type DetectionPlan struct {
	plan *core.DecodePlan
}

// CompileDetection compiles Q into a reusable detection plan. rw may
// be nil when suspects keep the original schema. Verdicts from the
// plan are bit-for-bit identical to System.DetectIndexed with the same
// records and rewriter.
func (s *System) CompileDetection(records []QueryRecord, rw Rewriter) (*DetectionPlan, error) {
	p, err := core.CompileDecodePlan(s.cfg, records, rw)
	if err != nil {
		return nil, err
	}
	return &DetectionPlan{plan: p}, nil
}

// DetectIndexed runs the compiled plan against a suspect document. ix
// may be nil (an index is then built per call; pass a cached one to
// stay on the warm path).
func (p *DetectionPlan) DetectIndexed(doc *Document, ix *DocumentIndex) *Detection {
	return toDetection(p.plan.Detect(doc, ix))
}

// MarshalReceipt renders Q as JSON for safekeeping.
func MarshalReceipt(records []QueryRecord) ([]byte, error) {
	return core.MarshalQuerySet(records)
}

// UnmarshalReceipt parses a JSON query set.
func UnmarshalReceipt(data []byte) ([]QueryRecord, error) {
	return core.UnmarshalQuerySet(data)
}

// NewRewriter builds a query rewriter for a schema mapping, for
// detection and usability measurement on re-organized documents.
func NewRewriter(m Mapping) (*rewrite.QueryRewriter, error) {
	return rewrite.NewQueryRewriter(m)
}

// Reorganize re-shreds a document from the mapping's source layout to
// its target layout.
func Reorganize(doc *Document, m Mapping) (*Document, error) {
	return rewrite.Transform(doc, m)
}

// Figure1Mapping is the paper's figure-1 re-organization (flat book
// records regrouped under publisher and editor).
func Figure1Mapping() Mapping { return rewrite.Figure1Mapping() }

// PublicationsMapping is Figure1Mapping extended with the price field of
// the publications dataset, making the re-organization lossless for that
// workload.
func PublicationsMapping() Mapping { return rewrite.PublicationsMapping() }

// NewUsabilityMeter expands usability query templates over the original
// document (paper §2.1). Templates parameterize one predicate, e.g.
// "db/book[title]/author".
func NewUsabilityMeter(original *Document, templates []string) (*UsabilityMeter, error) {
	// Expansion runs one enumeration plus one expected-answer query per
	// probe against the original, so it shares one document index.
	return usability.NewMeterIndexed(original, templates, usability.Options{MaxProbes: 200}, index.New(original))
}

// --- attacks (the demonstration's part 2) ---

// NewAlterationAttack randomly alters the given fraction of values.
func NewAlterationAttack(fraction float64) Attack {
	return attack.ValueAlteration{Fraction: fraction}
}

// NewReductionAttack keeps only a random subset of the scope's records.
func NewReductionAttack(scope string, keepFraction float64) Attack {
	return attack.Reduction{Scope: scope, KeepFraction: keepFraction}
}

// NewReorganizationAttack re-shreds the document under the mapping.
func NewReorganizationAttack(m Mapping) Attack {
	return attack.Reorganization{Mapping: m}
}

// NewReorderAttack shuffles sibling and attribute order everywhere.
func NewReorderAttack() Attack { return attack.Reorder{} }

// NewRedundancyRemovalAttack normalizes the duplicate groups of the
// given FDs.
func NewRedundancyRemovalAttack(fds []FD) Attack {
	return attack.RedundancyRemoval{FDs: fds}
}

// --- datasets (synthetic workloads with planted semantics) ---

// PublicationsDataset generates a figure-1-style publication database.
func PublicationsDataset(books int, seed int64) *Dataset {
	return datagen.Publications(datagen.PubConfig{Books: books, Seed: seed})
}

// JobsDataset generates the introduction's job-advertisement workload.
func JobsDataset(jobs int, seed int64) *Dataset {
	return datagen.Jobs(datagen.JobsConfig{Jobs: jobs, Seed: seed})
}

// LibraryDataset generates a digital-library workload with image
// payloads.
func LibraryDataset(items int, seed int64) *Dataset {
	return datagen.Library(datagen.LibraryConfig{Items: items, Seed: seed})
}

// NestedDataset generates a catalog whose records are nested two levels
// deep (catalog/publisher/book), exercising multi-level scopes.
func NestedDataset(books int, seed int64) *Dataset {
	return datagen.NestedPublications(datagen.NestedConfig{Books: books, Seed: seed})
}

// DatasetByName resolves a built-in dataset preset by name ("pubs",
// "jobs", "library" or "nested") — the name set the CLI and the wmxmld
// owner records share.
func DatasetByName(name string, records int, seed int64) (*Dataset, error) {
	return datagen.Preset(name, records, seed)
}

// --- structure-unit channel (paper §2.2 extension) ---

// StructureOptions configures the sibling-order watermark channel: one
// bit per record, carried by the relative order of the record's extreme
// Child values, identified by the record key. See internal/structwm and
// ablation A1 for its trade-offs.
type StructureOptions struct {
	Key     string
	Mark    Bits
	Scope   string // record set, e.g. "db/book"
	KeyPath string // record key, e.g. "title"
	Child   string // multi-valued child carrying the order bit, e.g. "author"
}

// StructureEmbed inserts a watermark into sibling order; no values
// change. Returns the number of carrier records.
func StructureEmbed(doc *Document, opts StructureOptions) (int, error) {
	res, err := structwm.Embed(doc, structwm.Config{
		Key: []byte(opts.Key), Mark: opts.Mark,
		Scope: opts.Scope, KeyPath: opts.KeyPath, Child: opts.Child,
	})
	if err != nil {
		return 0, err
	}
	return res.Carriers, nil
}

// StructureDetect reads the sibling-order watermark back and returns
// (detected, matchFraction).
func StructureDetect(doc *Document, opts StructureOptions) (bool, float64, error) {
	res, err := structwm.Detect(doc, structwm.Config{
		Key: []byte(opts.Key), Mark: opts.Mark,
		Scope: opts.Scope, KeyPath: opts.KeyPath, Child: opts.Child,
	})
	if err != nil {
		return false, 0, err
	}
	return res.Detection.Detected, res.Detection.MatchFraction, nil
}

// --- baseline (for comparisons) ---

// BaselineEmbed embeds with the structure-labelled baseline scheme [5].
func BaselineEmbed(doc *Document, key string, mark Bits) error {
	_, err := baseline.Embed(doc, baseline.Config{Key: []byte(key), Mark: mark})
	return err
}

// BaselineDetect detects the structure-labelled baseline watermark and
// returns (detected, matchFraction).
func BaselineDetect(doc *Document, key string, mark Bits) (bool, float64, error) {
	res, err := baseline.Detect(doc, baseline.Config{Key: []byte(key), Mark: mark})
	if err != nil {
		return false, 0, err
	}
	return res.Detection.Detected, res.Detection.MatchFraction, nil
}

// --- fingerprinting & traitor tracing (distribution chains) ---

// TraceResult is a ranked accusation list for one suspect document:
// who, among the known recipients, the leaked copy points to.
type TraceResult = fingerprint.TraceResult

// Accusation is one candidate recipient's tracing score.
type Accusation = fingerprint.Accusation

// CollusionStrategy names how a coalition composes a pirate copy.
type CollusionStrategy = attack.CollusionStrategy

// Collusion strategies for NewCollusionAttack.
const (
	CollusionMix      = attack.CollusionMix
	CollusionSegments = attack.CollusionSegments
	CollusionMajority = attack.CollusionMajority
)

// FingerprintOptions configures a Fingerprinter.
type FingerprintOptions struct {
	// Key is the owner's secret key; required. It derives every
	// recipient code — no codebook is stored anywhere.
	Key string
	// Schema describes the documents; required.
	Schema *Schema
	// Catalog supplies keys and FDs for semantic identities.
	Catalog Catalog
	// Targets are the watermark-carrying fields (empty auto-derives).
	Targets []string
	// Gamma is the carrier selection ratio (0 = default 10). Tracing
	// wants several votes per code bit; small documents need a small
	// gamma.
	Gamma int
	// Xi is the number of candidate low-order embedding positions.
	Xi int
	// Segments, SegmentBits and Replicas set the codebook geometry
	// (0 = the fingerprint package defaults: 8×12 bits, 2 replicas).
	Segments, SegmentBits, Replicas int
	// Alpha is the per-trace false-accusation budget (0 = 1e-3),
	// Bonferroni-split over the candidates.
	Alpha float64
}

func (o FingerprintOptions) internal() fingerprint.Options {
	return fingerprint.Options{
		Key:         []byte(o.Key),
		Schema:      o.Schema,
		Catalog:     o.Catalog,
		Targets:     o.Targets,
		Gamma:       o.Gamma,
		Xi:          o.Xi,
		Segments:    o.Segments,
		SegmentBits: o.SegmentBits,
		Replicas:    o.Replicas,
		Alpha:       o.Alpha,
	}
}

// Fingerprinter derives per-recipient codes, produces recipient copies
// and traces leaked documents back to recipients. Safe for concurrent
// use.
type Fingerprinter struct {
	fp *fingerprint.System
}

// NewFingerprinter builds a Fingerprinter.
func NewFingerprinter(opts FingerprintOptions) (*Fingerprinter, error) {
	fp, err := fingerprint.New(opts.internal())
	if err != nil {
		return nil, err
	}
	return &Fingerprinter{fp: fp}, nil
}

// RecipientCode returns the recipient's codeword (derived, never
// stored).
func (f *Fingerprinter) RecipientCode(recipient string) Bits {
	return f.fp.Code(recipient)
}

// Fingerprint embeds the recipient's code into doc in place — the copy
// to hand that recipient — and returns the receipt (safeguard Records
// like any embedding's Q).
func (f *Fingerprinter) Fingerprint(doc *Document, recipient string) (*EmbedReceipt, error) {
	res, err := f.fp.Embed(doc, recipient)
	if err != nil {
		return nil, err
	}
	return toReceipt(res), nil
}

// Trace decodes the suspect document once and ranks every candidate
// recipient by how strongly the recovered code points at them. With
// records (any fingerprint receipt's Q, optionally rewritten through
// rw) the decode runs the safeguarded queries; with nil records it
// re-derives the carriers blind (original schema required). Sweeping N
// candidates costs one decode plus N bit comparisons.
func (f *Fingerprinter) Trace(doc *Document, candidates []string, records []QueryRecord, rw Rewriter) (*TraceResult, error) {
	return f.TraceIndexed(doc, candidates, records, rw, nil)
}

// TraceIndexed is Trace reusing a caller-built document index over doc
// — build one index per suspect and share it across repeated traces.
func (f *Fingerprinter) TraceIndexed(doc *Document, candidates []string, records []QueryRecord, rw Rewriter, ix *DocumentIndex) (*TraceResult, error) {
	opts := fingerprint.TraceOptions{Index: ix}
	if records != nil {
		var err error
		if opts.Plan, err = core.CompileDecodePlan(f.fp.PlanConfig(), records, rw); err != nil {
			return nil, err
		}
	}
	return f.fp.Trace(doc, candidates, opts)
}

// NewCollusionAttack composes the attacked document with the given
// other fingerprinted copies into a pirate copy: "mix" interleaves
// records, "segments" cut-and-pastes contiguous runs, "majority" takes
// the per-value majority. scope is the record set, e.g. "db/book".
func NewCollusionAttack(copies []*Document, scope string, strategy CollusionStrategy) Attack {
	return attack.Collusion{Copies: copies, Scope: scope, Strategy: strategy}
}

// --- delivery-time fingerprinting (patch plans) ---

// DeliveryPlan is a precompiled patch plan for one document: byte
// offsets into the canonical serialization plus, per mark site, the
// alternative bytes for each codeword-bit value. Compiling costs one
// full embed pass; delivering any recipient's copy from the plan is a
// byte splice — no parsing, O(marked bytes) work. Plans marshal to a
// versioned JSON envelope (Marshal / UnmarshalDeliveryPlan) for storage.
type DeliveryPlan = deliver.Plan

// UnmarshalDeliveryPlan decodes a stored plan envelope, rejecting
// malformed plans and plans from newer versions.
func UnmarshalDeliveryPlan(data []byte) (*DeliveryPlan, error) {
	return deliver.UnmarshalPlan(data)
}

// Deliverer compiles delivery plans and splices recipient copies from
// them — the high-throughput distribution path. One CompilePlan serves
// every recipient of that document. Safe for concurrent use.
type Deliverer struct {
	fp *fingerprint.System
}

// NewDeliverer builds a Deliverer over the same options as a
// Fingerprinter; copies spliced from its plans are byte-identical to
// the Fingerprinter's full Fingerprint + SerializeXML output.
func NewDeliverer(opts FingerprintOptions) (*Deliverer, error) {
	fp, err := fingerprint.New(opts.internal())
	if err != nil {
		return nil, err
	}
	return &Deliverer{fp: fp}, nil
}

// CompilePlan runs the one parse-free-delivery-enabling pass: it
// canonicalizes doc (the SerializeXML shape) and records every mark
// site's offsets and per-bit alternative bytes. It returns the plan and
// the canonical bytes the plan's offsets index into; doc itself is not
// modified.
func (d *Deliverer) CompilePlan(doc *Document) (*DeliveryPlan, []byte, error) {
	return deliver.Compile(doc, d.fp.PlanConfig(), xmltree.SerializeOptions{Indent: "  "})
}

// Deliver splices recipient's copy from a compiled plan and the
// canonical original bytes, returning the copy and the same receipt a
// full Fingerprint of the document would have produced. The original is
// digest-checked against the plan before any splicing ("refused, not
// applied" on mismatch).
func (d *Deliverer) Deliver(plan *DeliveryPlan, original []byte, recipient string) ([]byte, *EmbedReceipt, error) {
	b, err := plan.Bind(original)
	if err != nil {
		return nil, nil, err
	}
	payload := d.fp.Payload(recipient)
	out, err := b.AppendCopy(nil, payload)
	if err != nil {
		return nil, nil, err
	}
	res, err := plan.Receipt(payload)
	if err != nil {
		return nil, nil, err
	}
	return out, toReceipt(res), nil
}

// BoundPlan is a delivery plan already verified against its canonical
// original bytes — the ready-to-splice state. Bind once, splice many.
type BoundPlan = deliver.Bound

// Bind verifies original against the plan's digest and length and
// returns the ready-to-splice state. Use with Splice for
// many-recipient sweeps: binding hashes the whole original once, and
// each Splice afterwards touches only the marked bytes.
func (d *Deliverer) Bind(plan *DeliveryPlan, original []byte) (*BoundPlan, error) {
	return plan.Bind(original)
}

// Splice appends recipient's copy to dst (pass dst[:0] to reuse a
// buffer across recipients) and returns the extended slice. This is
// the per-copy hot path: derive the recipient's payload, then copy
// static segments and per-site alternatives — no parsing, no hashing.
func (d *Deliverer) Splice(b *BoundPlan, dst []byte, recipient string) ([]byte, error) {
	return b.AppendCopy(dst, d.fp.Payload(recipient))
}

// DeliverStream is Deliver for originals too large to hold in memory:
// it splices src (the canonical original bytes) onto w in constant
// memory. The digest is verified as src drains, so on error the bytes
// already written to w must be discarded.
func (d *Deliverer) DeliverStream(w io.Writer, src io.Reader, plan *DeliveryPlan, recipient string) error {
	return plan.ApplyReader(w, src, d.fp.Payload(recipient))
}

// StreamOptions tunes the record-chunked streaming layer: documents are
// split at their top-level record elements and processed in bounded
// batches, so peak memory is chunk size × workers, never document size.
type StreamOptions struct {
	// ChunkSize is the number of record elements per chunk (0 = 256).
	ChunkSize int
	// Workers bounds the chunk workers running concurrently
	// (0 = min(GOMAXPROCS, 8)).
	Workers int
	// MaxDepth caps XML nesting while scanning (0 = the xmltree
	// default).
	MaxDepth int
}

func (o StreamOptions) internal() stream.Options {
	return stream.Options{
		ChunkSize: o.ChunkSize,
		Workers:   o.Workers,
		Parse:     xmltree.ParseOptions{MaxDepth: o.MaxDepth},
	}
}

// StreamStats reports how a streaming call executed: how many chunks
// and records flowed through, or why it fell back to the in-memory
// path (positional identities, ValidateInput, non-chunk-local query
// sets). Both paths produce byte-identical output.
type StreamStats = stream.Stats

// EmbedStream reads an XML document from r, embeds the watermark, and
// writes the marked document to w — the one-call form for file and
// pipe workflows. The document is processed in record chunks with peak
// memory bounded by chunk size, never document size, and the output
// (and receipt) is byte-identical to Embed + SerializeXML on the
// materialized document.
func (s *System) EmbedStream(r io.Reader, w io.Writer) (*EmbedReceipt, error) {
	rec, _, err := s.EmbedStreamContext(context.Background(), r, w, StreamOptions{})
	return rec, err
}

// EmbedStreamContext is EmbedStream with cancellation (the stream
// stops mid-document, between chunks) and explicit chunking options.
func (s *System) EmbedStreamContext(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (*EmbedReceipt, StreamStats, error) {
	res, err := stream.Embed(ctx, r, w, s.cfg, opts.internal())
	if err != nil {
		return nil, StreamStats{}, err
	}
	return toReceipt(res.EmbedResult), res.Stats, nil
}

// DetectStream reads a suspect XML document from r and runs detection
// against the safeguarded query set, chunk by chunk — the verdict is
// identical to Detect on the materialized document.
func (s *System) DetectStream(r io.Reader, records []QueryRecord, rw Rewriter) (*Detection, error) {
	det, _, err := s.DetectStreamContext(context.Background(), r, records, rw, StreamOptions{})
	return det, err
}

// DetectStreamContext is DetectStream with cancellation and explicit
// chunking options.
func (s *System) DetectStreamContext(ctx context.Context, r io.Reader, records []QueryRecord, rw Rewriter, opts StreamOptions) (*Detection, StreamStats, error) {
	res, stats, err := stream.Detect(ctx, r, s.cfg, records, rw, opts.internal())
	if err != nil {
		return nil, StreamStats{}, err
	}
	return toDetection(res), stats, nil
}

// DetectBlindStreamContext runs blind detection (carriers re-derived,
// no stored Q) over a streamed suspect document.
func (s *System) DetectBlindStreamContext(ctx context.Context, r io.Reader, opts StreamOptions) (*Detection, StreamStats, error) {
	res, stats, err := stream.DetectBlind(ctx, r, s.cfg, opts.internal())
	if err != nil {
		return nil, StreamStats{}, err
	}
	return toDetection(res), stats, nil
}

// MarkFromText encodes a text message as watermark bits.
func MarkFromText(msg string) Bits { return wmark.FromText(msg) }

// RandomMark derives a deterministic pseudo-random mark from a seed.
func RandomMark(seed string, bits int) Bits { return wmark.Random(seed, bits) }

// --- specs (JSON document-type definitions) ---

// SpecParts is a parsed document-type spec: everything needed to
// watermark documents of that type.
type SpecParts struct {
	Name      string
	Schema    *Schema
	Catalog   Catalog
	Targets   []string
	Templates []string
}

// LoadSpec parses a JSON spec (see internal/config for the format) into
// working objects.
func LoadSpec(data []byte) (*SpecParts, error) {
	spec, err := config.Parse(data)
	if err != nil {
		return nil, err
	}
	sch, err := spec.BuildSchema()
	if err != nil {
		return nil, err
	}
	return &SpecParts{
		Name:      spec.Name,
		Schema:    sch,
		Catalog:   spec.BuildCatalog(),
		Targets:   spec.Targets,
		Templates: spec.Templates,
	}, nil
}

// ExportSpec renders working objects as a JSON spec.
func ExportSpec(name string, sch *Schema, cat Catalog, targets, templates []string) ([]byte, error) {
	return config.FromParts(name, sch, cat, targets, templates).Marshal()
}

// LoadMapping parses a JSON schema mapping.
func LoadMapping(data []byte) (Mapping, error) { return config.ParseMapping(data) }

// ExportMapping renders a schema mapping as JSON.
func ExportMapping(m Mapping) ([]byte, error) { return config.MarshalMapping(m) }
