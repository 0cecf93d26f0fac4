// Package deliver implements delivery-time fingerprinting: compile a
// document's embedding once into a patch plan — byte offsets into the
// canonical serialized bytes plus, per codeword bit, the alternative
// value bytes for each mark site — then produce any recipient's copy by
// splicing, with zero parsing and O(marked bytes) work per copy.
//
// The factoring is sound because every keyed decision of the WmXML
// encoder (carrier selection, bit assignment, low-order position)
// depends only on the owner key and the unit identities, never on the
// payload being embedded: all recipient copies of one document share
// the same mark sites and differ only in which of two byte renderings
// each site carries. The plan precomputes both renderings per site and
// both query variants per unit, so applying a plan also reconstructs
// the recipient's receipt (Q) without touching the tree.
package deliver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/stream"
	"wmxml/internal/wmark"
)

// PlanVersion is the plan envelope version this build reads and writes.
const PlanVersion = 1

// Site is one physical value's patch site: the half-open byte range
// [Start, End) in the canonical document bytes, the payload bit index
// that decides it, and the two alternative byte renderings — Alt[b] is
// spliced in when the recipient's payload bit is b. Sites where neither
// alternative differs from the original bytes are omitted from the plan
// (their tallies live in the owning UnitPlan).
type Site struct {
	Start int       `json:"start"`
	End   int       `json:"end"`
	Bit   int       `json:"bit"`
	Alt   [2]string `json:"alt"`
}

// UnitPlan is the receipt-side record of one selected identity unit:
// enough to reconstruct, for any payload, exactly the tallies and query
// record a direct core.Embed of that payload would have produced.
type UnitPlan struct {
	ID     string `json:"id"`
	Type   string `json:"type"`
	Target string `json:"target"`
	// Bit is the payload bit the unit carries.
	Bit int `json:"bit"`
	// Wrote and Unemb are the per-bit-value tallies: Wrote[b] values
	// written and Unemb[b] skipped when the unit's payload bit is b.
	// The unit is a carrier for payload p iff Wrote[p[Bit]] > 0.
	Wrote [2]int `json:"wrote"`
	Unemb [2]int `json:"unemb"`
	// DependsBit is the payload bit whose value selects the identity
	// query variant (a marked selector renders two different predicate
	// values); -1 when the query is payload-independent.
	DependsBit int `json:"depends_bit"`
	// Query holds the identity query per DependsBit value (both entries
	// equal when DependsBit is -1; empty for units that can never be
	// carriers).
	Query [2]string `json:"query"`
}

// Plan is a compiled patch plan for one canonical document rendering.
type Plan struct {
	Version int `json:"version"`
	// Digest is the sha256 hex of the canonical document bytes the
	// offsets index into; DocLen is their length. A plan must never be
	// applied to bytes with a different digest.
	Digest string `json:"digest"`
	DocLen int    `json:"doc_len"`
	// Indent and OmitDeclaration record the serialize options the
	// canonical bytes were produced with.
	Indent          string `json:"indent"`
	OmitDeclaration bool   `json:"omit_declaration,omitempty"`
	// PayloadBits is the payload length every recipient codeword must
	// have.
	PayloadBits int `json:"payload_bits"`
	// Sites are the patch sites, sorted by Start, non-overlapping.
	Sites []Site `json:"sites"`
	// Units are the selected identity units in enumeration order — the
	// order receipt records appear in.
	Units []UnitPlan `json:"units"`
	// Bandwidth is the capacity report from identity enumeration.
	Bandwidth identity.Report `json:"bandwidth"`
}

// DigestBytes returns the plan-store key for a canonical document
// rendering: the sha256 hex digest of its bytes.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Validate checks the structural invariants that make a plan safe to
// splice: version, digest shape, in-bounds sorted non-overlapping
// sites, and bit indices inside the payload. Every plan read from an
// untrusted source must pass Validate before use — it is what turns a
// malformed plan into a clean error instead of an out-of-bounds splice.
func (p *Plan) Validate() error {
	if p.Version != PlanVersion {
		return fmt.Errorf("deliver: plan version %d, this build supports %d", p.Version, PlanVersion)
	}
	if len(p.Digest) != 64 {
		return fmt.Errorf("deliver: plan digest %q is not a sha256 hex digest", p.Digest)
	}
	if _, err := hex.DecodeString(p.Digest); err != nil {
		return fmt.Errorf("deliver: plan digest: %w", err)
	}
	if p.DocLen < 0 {
		return fmt.Errorf("deliver: negative document length %d", p.DocLen)
	}
	if p.PayloadBits < 1 {
		return fmt.Errorf("deliver: payload of %d bits", p.PayloadBits)
	}
	prevEnd := 0
	for i, s := range p.Sites {
		if s.Start < prevEnd || s.End < s.Start || s.End > p.DocLen {
			return fmt.Errorf("deliver: site %d range [%d,%d) overlaps or out of bounds (previous end %d, doc %d bytes)",
				i, s.Start, s.End, prevEnd, p.DocLen)
		}
		if s.Bit < 0 || s.Bit >= p.PayloadBits {
			return fmt.Errorf("deliver: site %d bit %d outside payload of %d bits", i, s.Bit, p.PayloadBits)
		}
		prevEnd = s.End
	}
	for i, u := range p.Units {
		if u.Bit < 0 || u.Bit >= p.PayloadBits {
			return fmt.Errorf("deliver: unit %d bit %d outside payload of %d bits", i, u.Bit, p.PayloadBits)
		}
		if u.DependsBit < -1 || u.DependsBit >= p.PayloadBits {
			return fmt.Errorf("deliver: unit %d depends on bit %d outside payload of %d bits", i, u.DependsBit, p.PayloadBits)
		}
		if u.Wrote[0] < 0 || u.Wrote[1] < 0 || u.Unemb[0] < 0 || u.Unemb[1] < 0 {
			return fmt.Errorf("deliver: unit %d has negative tallies", i)
		}
		if u.Wrote[0] > 0 || u.Wrote[1] > 0 {
			if u.Query[0] == "" || (u.DependsBit >= 0 && u.Query[1] == "") {
				return fmt.Errorf("deliver: carrier unit %d (%s) has no identity query", i, u.ID)
			}
		}
	}
	return nil
}

// Marshal encodes the plan as its versioned JSON envelope.
func (p *Plan) Marshal() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// UnmarshalPlan decodes and validates a plan envelope. Plans written by
// a newer build (higher version) are rejected rather than misread.
func UnmarshalPlan(data []byte) (*Plan, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("deliver: parse plan: %w", err)
	}
	if probe.Version > PlanVersion {
		return nil, fmt.Errorf("deliver: plan version %d is newer than this build supports (%d)", probe.Version, PlanVersion)
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("deliver: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// payloadIndex maps a payload bit to 0 or 1 for indexing Alt/Query
// pairs, treating any non-zero bit as 1 exactly like the embedding
// algorithms do.
func payloadIndex(b uint8) int {
	if b != 0 {
		return 1
	}
	return 0
}

// checkPayload verifies the codeword length against the plan.
func (p *Plan) checkPayload(payload wmark.Bits) error {
	if len(payload) != p.PayloadBits {
		return fmt.Errorf("deliver: payload has %d bits, plan wants %d", len(payload), p.PayloadBits)
	}
	return nil
}

// Bound is a plan verified against one concrete copy of the canonical
// bytes. Binding hoists the digest check out of the per-recipient path:
// verify once, then each Deliver is pure splicing.
type Bound struct {
	plan *Plan
	orig []byte
}

// Bind validates the plan and verifies orig against its digest and
// length. A mutated original — even by one byte — is refused here, so a
// plan can never splice marks into a document it was not compiled from.
func (p *Plan) Bind(orig []byte) (*Bound, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(orig) != p.DocLen {
		return nil, fmt.Errorf("deliver: document is %d bytes, plan was compiled over %d", len(orig), p.DocLen)
	}
	if d := DigestBytes(orig); d != p.Digest {
		return nil, fmt.Errorf("deliver: document digest %s does not match plan digest %s — refusing to apply", d, p.Digest)
	}
	return &Bound{plan: p, orig: orig}, nil
}

// Plan returns the bound plan.
func (b *Bound) Plan() *Plan { return b.plan }

// AppendCopy appends the recipient copy for payload to dst and returns
// the extended slice — the allocation-free fast path for high-volume
// delivery sweeps.
func (b *Bound) AppendCopy(dst []byte, payload wmark.Bits) ([]byte, error) {
	if err := b.plan.checkPayload(payload); err != nil {
		return dst, err
	}
	pos := 0
	for _, s := range b.plan.Sites {
		dst = append(dst, b.orig[pos:s.Start]...)
		dst = append(dst, s.Alt[payloadIndex(payload[s.Bit])]...)
		pos = s.End
	}
	return append(dst, b.orig[pos:]...), nil
}

// Receipt reconstructs the embedding receipt a direct core embed of
// payload would have produced: tallies, bandwidth and the recipient's
// query set Q, without parsing anything.
func (p *Plan) Receipt(payload wmark.Bits) (*core.EmbedResult, error) {
	if err := p.checkPayload(payload); err != nil {
		return nil, err
	}
	res := &core.EmbedResult{Bandwidth: p.Bandwidth}
	var recs []core.QueryRecord
	for _, u := range p.Units {
		bi := payloadIndex(payload[u.Bit])
		res.Unembeddable += u.Unemb[bi]
		if u.Wrote[bi] == 0 {
			continue
		}
		res.Carriers++
		res.Embedded += u.Wrote[bi]
		q := u.Query[0]
		if u.DependsBit >= 0 {
			q = u.Query[payloadIndex(payload[u.DependsBit])]
		}
		recs = append(recs, core.QueryRecord{ID: u.ID, Query: q, Type: u.Type, Target: u.Target})
	}
	if len(recs) > 0 {
		res.Records = recs
	}
	return res, nil
}

// ApplyReader streams the recipient copy for payload from src to dst
// in constant memory, composing the plan's edits with the streaming
// layer's chunked splice. The source's digest is computed during the
// copy and verified at the end — a mismatch (or a truncated or
// overlong source) returns an error, and the caller must discard the
// partially written output. Callers that must not emit a single
// unverified byte should materialize the original and use Bind.
func (p *Plan) ApplyReader(dst io.Writer, src io.Reader, payload wmark.Bits) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := p.checkPayload(payload); err != nil {
		return err
	}
	edits := make([]stream.Edit, len(p.Sites))
	for i, s := range p.Sites {
		edits[i] = stream.Edit{Start: int64(s.Start), End: int64(s.End), Repl: []byte(s.Alt[payloadIndex(payload[s.Bit])])}
	}
	h := sha256.New()
	n, err := stream.Splice(dst, io.TeeReader(src, h), edits, 0)
	if err != nil {
		return err
	}
	if n != int64(p.DocLen) {
		return fmt.Errorf("deliver: source is %d bytes, plan was compiled over %d — output must be discarded", n, p.DocLen)
	}
	if d := hex.EncodeToString(h.Sum(nil)); d != p.Digest {
		return fmt.Errorf("deliver: source digest %s does not match plan digest %s — output must be discarded", d, p.Digest)
	}
	return nil
}
