package core

import (
	"fmt"

	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/wa"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// EmbedSite is one key-selected identity unit together with the keyed
// embedding parameters insertion would use for it. The carrier choice,
// bit assignment and low-order position all derive from the owner key
// and the unit's identity — never from the mark being embedded — so one
// enumeration serves every payload over the same document. That is the
// factoring delivery-time fingerprinting exploits: compile the sites
// once, then produce any recipient's copy by splicing value bytes.
type EmbedSite struct {
	// Unit is the selected identity unit (its Items are the physical
	// values insertion would rewrite).
	Unit identity.Unit
	// BitIndex is the index into the mark whose bit this unit carries.
	BitIndex int
	// Params carries the keyed low-order embedding position.
	Params wa.Params
	// Alg is the plug-in algorithm for the unit's data type; nil when
	// the type has no watermark bandwidth (insertion still counts the
	// unit's items as unembeddable).
	Alg wa.Algorithm
}

// EnumerateEmbedSites runs the payload-independent half of insertion —
// identity enumeration plus keyed carrier selection — and returns every
// selected unit with its embedding parameters, in the deterministic
// enumeration order EmbedIndexed processes them. cfg.Mark supplies only
// the payload length (bit indices range over len(cfg.Mark)); its values
// are never consulted. A nil ix builds an index internally (unless
// cfg.DisableIndex is set).
func EnumerateEmbedSites(doc *xmltree.Node, cfg Config, ix *index.Index) ([]EmbedSite, identity.Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, identity.Report{}, err
	}
	sel, err := cfg.selector()
	if err != nil {
		return nil, identity.Report{}, err
	}
	if cfg.ValidateInput {
		if vs := cfg.Schema.Validate(doc); len(vs) > 0 {
			return nil, identity.Report{}, fmt.Errorf("core: document invalid against schema %q: %s (and %d more)",
				cfg.Schema.Name, vs[0], len(vs)-1)
		}
	}
	dix := docIndex(doc, cfg, ix)
	builder := identity.NewBuilder(cfg.Schema, cfg.Catalog, cfg.Identity)
	units, rep, err := builder.UnitsIndexed(doc, dix)
	if err != nil {
		return nil, identity.Report{}, err
	}
	var sites []EmbedSite
	for _, u := range units {
		if s, ok := carrier(u, sel, cfg.XiByTarget); ok {
			sites = append(sites, s)
		}
	}
	return sites, rep, nil
}

// carrier applies the keyed selection to u and, for a selected unit,
// derives the mark bit it carries, its low-order position and the
// plug-in for its type. Insertion (EnumerateEmbedSites, which embedding
// and delivery plans share) and blind decoding (BlindDecoder.DecodeUnit)
// both derive carriers here, so they cannot disagree about one.
func carrier(u identity.Unit, sel *wmark.Selector, xiByTarget map[string]int) (EmbedSite, bool) {
	if !sel.Selected(u.ID) {
		return EmbedSite{}, false
	}
	return EmbedSite{
		Unit:     u,
		BitIndex: sel.BitIndex(u.ID),
		Params:   wa.Params{BitPosition: sel.PositionIn(u.ID, xiByTarget[u.Scope+"/"+u.Field])},
		Alg:      wa.ForType(u.Type),
	}, true
}
