// Package fingerprint turns the single-mark WmXML library into a
// distribution-chain system: instead of one watermark saying "this is
// mine", each recipient of a document gets a copy carrying a
// recipient-specific code, and a leaked copy is traced back to the
// recipient (or coalition of recipients) it was cut from.
//
// The design follows the fingerprinting half of the watermarking
// taxonomy in Kamran & Farooq's survey (PAPERS.md):
//
//   - Codebook: every recipient's codeword is derived from the owner
//     key and the recipient id by keyed PRF — no codeword table needs
//     storing, and nobody without the key can compute any code. A
//     codeword is Segments × SegmentBits keyed-random bits, replicated
//     Replicas times into the embedded payload à la Boneh–Shaw: a
//     cut-and-paste coalition can only mix votes, and every contiguous
//     slice of the document it keeps still carries attributable
//     segments of someone's code.
//   - Embedding: a recipient copy is produced by the ordinary core
//     embedder with the codeword as the mark. Carrier selection and
//     bit-index assignment depend only on the owner key, so every
//     recipient copy uses the same carriers — colluders comparing
//     copies see differing values exactly where codes differ (the
//     marking assumption), and tracing can decode any mix against one
//     carrier layout.
//   - Tracing: the suspect document is decoded ONCE into a per-bit
//     vote table (core.Decode*), the replicated positions are folded
//     onto the base code, and each candidate recipient is scored by
//     how well the recovered bits correlate with their codeword. The
//     null hypothesis (innocent recipient) is a fair coin per voted
//     bit, so each score converts to an exact binomial p-value; a
//     recipient is accused only when the p-value clears a
//     Bonferroni-corrected false-accusation budget. An N-recipient
//     sweep therefore costs one decode plus N bit-vector comparisons —
//     no per-recipient re-parse, re-index or query re-execution.
package fingerprint

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/obs"
	"wmxml/internal/schema"
	"wmxml/internal/semantics"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// Defaults for the codebook geometry and the accusation budget.
const (
	// DefaultSegments × DefaultSegmentBits is the base code length; 96
	// bits keeps the per-recipient correlation test powerful (z grows
	// with sqrt of the code length) while small documents still get a
	// few votes per position.
	DefaultSegments    = 8
	DefaultSegmentBits = 12
	// DefaultReplicas replicates the base code in the embedded payload
	// so every code bit collects votes from several independent carrier
	// groups.
	DefaultReplicas = 2
	// DefaultAlpha is the per-trace false-accusation budget, split over
	// the candidate recipients (Bonferroni).
	DefaultAlpha = 1e-3
)

// Options configures a fingerprinting System.
type Options struct {
	// Key is the owner's secret key; required. It derives every
	// recipient code and the carrier selection.
	Key []byte
	// Schema describes the document type; required.
	Schema *schema.Schema
	// Catalog supplies keys and FDs for semantic identities.
	Catalog semantics.Catalog
	// Targets are the watermark-carrying fields (empty auto-derives).
	Targets []string
	// Gamma is the carrier selection ratio (0 = core default). Tracing
	// needs a few votes per code bit, so distributions of small
	// documents want a small gamma.
	Gamma int
	// Xi is the number of candidate low-order embedding positions
	// (0 = core default).
	Xi int
	// XiByTarget overrides Xi per target field.
	XiByTarget map[string]int
	// Segments and SegmentBits set the base code geometry
	// (0 = defaults). The base code is Segments*SegmentBits bits.
	Segments    int
	SegmentBits int
	// Replicas replicates the base code in the embedded payload
	// (0 = DefaultReplicas).
	Replicas int
	// Alpha is the per-trace false-accusation probability budget
	// (0 = DefaultAlpha). It is divided by the number of candidates, so
	// the chance that ANY innocent recipient is accused in one trace
	// stays below Alpha.
	Alpha float64
}

// System derives codes, fingerprints copies and traces leaks for one
// owner. Safe for concurrent use.
type System struct {
	cfg      core.Config // Mark left empty; set per call
	segments int
	segBits  int
	replicas int
	alpha    float64
}

// New builds a System.
func New(opts Options) (*System, error) {
	if len(opts.Key) == 0 {
		return nil, fmt.Errorf("fingerprint: owner key is required")
	}
	if opts.Schema == nil {
		return nil, fmt.Errorf("fingerprint: schema is required")
	}
	s := &System{
		segments: opts.Segments,
		segBits:  opts.SegmentBits,
		replicas: opts.Replicas,
		alpha:    opts.Alpha,
	}
	if s.segments <= 0 {
		s.segments = DefaultSegments
	}
	if s.segBits <= 0 {
		s.segBits = DefaultSegmentBits
	}
	if s.replicas <= 0 {
		s.replicas = DefaultReplicas
	}
	if s.alpha <= 0 {
		s.alpha = DefaultAlpha
	}
	s.cfg = core.Config{
		Key:        opts.Key,
		Gamma:      opts.Gamma,
		Xi:         opts.Xi,
		XiByTarget: opts.XiByTarget,
		Schema:     opts.Schema,
		Catalog:    opts.Catalog,
		Identity: identity.Options{
			Targets: opts.Targets,
		},
	}
	return s, nil
}

// BaseBits returns the base code length in bits.
func (s *System) BaseBits() int { return s.segments * s.segBits }

// PayloadBits returns the embedded payload length (base × replicas) —
// the mark length every recipient copy carries.
func (s *System) PayloadBits() int { return s.BaseBits() * s.replicas }

// PlanConfig returns the core config a delivery-plan compiler should
// enumerate embed sites with: the system's owner config carrying a
// zeroed payload of the full code geometry. Site selection ignores the
// mark's values (only its length matters), so a plan compiled from this
// config serves every recipient payload.
func (s *System) PlanConfig() core.Config {
	return s.configFor(make(wmark.Bits, s.PayloadBits()))
}

// Code returns the recipient's base codeword: Segments×SegmentBits
// keyed-random bits derived from HMAC(owner key, recipient id).
// Deterministic, and uncomputable without the key.
func (s *System) Code(recipient string) wmark.Bits {
	mac := hmac.New(sha256.New, s.cfg.Key)
	mac.Write([]byte("wmxml-fingerprint|"))
	mac.Write([]byte(recipient))
	seed := hex.EncodeToString(mac.Sum(nil))
	return wmark.Random(seed, s.BaseBits())
}

// Payload expands a recipient's base code into the embedded mark: the
// base replicated Replicas times, so each code bit is carried by
// several disjoint carrier groups.
func (s *System) Payload(recipient string) wmark.Bits {
	base := s.Code(recipient)
	out := make(wmark.Bits, 0, len(base)*s.replicas)
	for r := 0; r < s.replicas; r++ {
		out = append(out, base...)
	}
	return out
}

// configFor returns the core config carrying a payload of the code
// geometry; mark supplies the embedded bits (zeroed for decoding —
// decode only uses its length).
func (s *System) configFor(mark wmark.Bits) core.Config {
	cfg := s.cfg
	cfg.Mark = mark
	return cfg
}

// Embed produces the recipient-specific copy: it watermarks doc in
// place with the recipient's payload and returns the core receipt
// (safeguard Records exactly like a plain embedding's Q).
func (s *System) Embed(doc *xmltree.Node, recipient string) (*core.EmbedResult, error) {
	return s.EmbedIndexed(doc, recipient, nil)
}

// EmbedIndexed is Embed reusing a caller-built document index over doc.
func (s *System) EmbedIndexed(doc *xmltree.Node, recipient string, ix *index.Index) (*core.EmbedResult, error) {
	if recipient == "" {
		return nil, fmt.Errorf("fingerprint: recipient id is required")
	}
	return core.EmbedIndexed(doc, s.configFor(s.Payload(recipient)), ix)
}

// Accusation is one candidate recipient's tracing score.
type Accusation struct {
	// Recipient is the candidate's id.
	Recipient string `json:"recipient"`
	// MatchFraction is the fraction of decided code bits equal to the
	// candidate's code (innocents sit near 0.5).
	MatchFraction float64 `json:"match_fraction"`
	// Z is the standard score of MatchFraction under the innocent
	// (fair-coin) null hypothesis.
	Z float64 `json:"z"`
	// PValue is the exact binomial probability that an innocent code
	// matches at least this well.
	PValue float64 `json:"p_value"`
	// Accused reports PValue <= the trace's Bonferroni threshold.
	Accused bool `json:"accused"`
	// SegmentMatches is the per-segment match fraction — the
	// Boneh–Shaw-style evidence of which code segments survived a
	// cut-and-paste coalition.
	SegmentMatches []float64 `json:"segment_matches,omitempty"`
	// SegmentsAttributed counts segments matching at >= 90%.
	SegmentsAttributed int `json:"segments_attributed"`
}

// TraceResult is a ranked accusation list for one suspect document.
type TraceResult struct {
	// Accusations is sorted most-suspect first (descending Z).
	Accusations []Accusation `json:"accusations"`
	// Accused lists the ids that cleared the threshold, in rank order.
	Accused []string `json:"accused"`
	// DecidedBits is the number of base code positions with a non-tied
	// vote majority (the sample size of every correlation test).
	DecidedBits int `json:"decided_bits"`
	// TiedBits counts voted positions whose majority tied (ambiguous
	// under collusion; excluded from the tests).
	TiedBits int `json:"tied_bits"`
	// Threshold is the Bonferroni-corrected p-value bound accusations
	// had to clear (Alpha / candidates).
	Threshold float64 `json:"threshold"`
	// QueriesRun and QueryMisses report the single decode pass.
	QueriesRun  int `json:"queries_run"`
	QueryMisses int `json:"query_misses"`
}

// TraceOptions selects how the suspect document is decoded.
type TraceOptions struct {
	// Records is a safeguarded query set from any fingerprint embedding
	// of this document type; nil decodes blind (the suspect must still
	// follow the original schema — true for value-level collusion).
	Records []core.QueryRecord
	// Rewriter translates queries for a re-organized suspect (with
	// Records only).
	Rewriter core.Rewriter
	// Index is an optional caller-built index over the suspect; nil
	// builds one internally. The wmxmld doc cache passes one here so
	// repeated traces of the same suspect skip reparse + index build.
	Index *index.Index
	// Plan is an optional decode plan precompiled from Records under
	// PlanConfig (same geometry as this system). When set, Records and
	// Rewriter are ignored and the decode skips query compilation — the
	// warm path for repeated traces of one owner's receipts. The plan's
	// mark length must equal PayloadBits.
	Plan *core.DecodePlan
	// Trace receives "decode" and "correlate" stage spans when the call
	// runs under an instrumented request; nil records nothing.
	Trace *obs.Trace
}

// Trace decodes the suspect document once and scores every candidate
// recipient against the recovered code. Candidates not in the returned
// Accused list are, at confidence 1-Alpha, not sources of the leak.
func (s *System) Trace(doc *xmltree.Node, candidates []string, opts TraceOptions) (*TraceResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("fingerprint: no candidate recipients to trace against")
	}
	var dec *core.DecodeResult
	var err error
	dsp := opts.Trace.StartSpan("decode")
	switch {
	case opts.Plan != nil:
		if got := opts.Plan.MarkLen(); got != s.PayloadBits() {
			return nil, fmt.Errorf("fingerprint: trace plan decodes %d bits, system payload is %d", got, s.PayloadBits())
		}
		dec = opts.Plan.Decode(doc, opts.Index)
	case opts.Records != nil:
		cfg := s.configFor(make(wmark.Bits, s.PayloadBits()))
		dec, err = core.DecodeWithQueriesIndexed(doc, cfg, opts.Records, opts.Rewriter, opts.Index)
	default:
		cfg := s.configFor(make(wmark.Bits, s.PayloadBits()))
		dec, err = core.DecodeBlindIndexed(doc, cfg, opts.Index)
	}
	dsp.End()
	if err != nil {
		return nil, err
	}
	csp := opts.Trace.StartSpan("correlate")
	res := s.scoreVotes(dec, candidates)
	csp.End()
	return res, nil
}

// scoreVotes folds the replicated payload votes onto the base code and
// ranks the candidates.
func (s *System) scoreVotes(dec *core.DecodeResult, candidates []string) *TraceResult {
	base := s.BaseBits()
	ones := make([]int, base)
	zeros := make([]int, base)
	for i := 0; i < dec.Votes.Len(); i++ {
		o, z := dec.Votes.Counts(i)
		ones[i%base] += o
		zeros[i%base] += z
	}
	// recovered[j] is the majority bit of base position j; decided[j]
	// is false for unvoted positions and ties.
	recovered := make(wmark.Bits, base)
	decided := make([]bool, base)
	decidedN, ties := 0, 0
	for j := 0; j < base; j++ {
		switch {
		case ones[j] > zeros[j]:
			recovered[j], decided[j] = 1, true
			decidedN++
		case zeros[j] > ones[j]:
			recovered[j], decided[j] = 0, true
			decidedN++
		case ones[j] > 0: // voted but tied
			ties++
		}
	}
	res := &TraceResult{
		DecidedBits: decidedN,
		TiedBits:    ties,
		Threshold:   s.alpha / float64(len(candidates)),
		QueriesRun:  dec.QueriesRun,
		QueryMisses: dec.QueryMisses,
	}
	for _, cand := range candidates {
		code := s.Code(cand)
		acc := Accusation{Recipient: cand, SegmentMatches: make([]float64, s.segments)}
		matches := 0
		for seg := 0; seg < s.segments; seg++ {
			segMatch, segDecided := 0, 0
			for b := 0; b < s.segBits; b++ {
				j := seg*s.segBits + b
				if !decided[j] {
					continue
				}
				segDecided++
				if recovered[j] == code[j] {
					segMatch++
				}
			}
			matches += segMatch
			if segDecided > 0 {
				acc.SegmentMatches[seg] = float64(segMatch) / float64(segDecided)
				if acc.SegmentMatches[seg] >= 0.9 {
					acc.SegmentsAttributed++
				}
			}
		}
		if decidedN > 0 {
			acc.MatchFraction = float64(matches) / float64(decidedN)
			acc.Z = (acc.MatchFraction - 0.5) * 2 * math.Sqrt(float64(decidedN))
			// The exact count keeps the test honest: rounding the
			// fraction back to a count can drop a tail term and accuse
			// past the advertised budget.
			acc.PValue = wmark.FalsePositiveProbabilityCount(decidedN, matches)
			acc.Accused = acc.PValue <= res.Threshold
		} else {
			acc.PValue = 1
		}
		res.Accusations = append(res.Accusations, acc)
	}
	// Rank most-suspect first; ties break on id for determinism.
	sort.SliceStable(res.Accusations, func(i, k int) bool {
		a, b := res.Accusations[i], res.Accusations[k]
		if a.Z != b.Z {
			return a.Z > b.Z
		}
		return a.Recipient < b.Recipient
	})
	for _, a := range res.Accusations {
		if a.Accused {
			res.Accused = append(res.Accused, a.Recipient)
		}
	}
	return res
}
