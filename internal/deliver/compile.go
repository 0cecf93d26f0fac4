package deliver

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"wmxml/internal/core"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// markedValue records, for one physical item a recipient copy may
// rewrite, the payload bit that decides it and the item's post-
// insertion textual value under either bit choice. The compiler uses
// it to simulate phase-2 query generation (a unit whose selector is a
// marked value renders two query variants).
type markedValue struct {
	bit  int
	post [2]string
}

// markedKey addresses a physical item like an xpath.Item does.
type markedKey struct {
	node *xmltree.Node
	attr string
}

// Compile runs the payload-independent half of embedding once over doc
// and returns the patch plan plus the canonical serialized bytes the
// plan's offsets index into. cfg.Mark supplies only the payload length;
// sopts chooses the canonical rendering (a plan only ever applies to
// bytes serialized with the same options). The document is not
// modified: alternative renderings are produced from detached clones.
func Compile(doc *xmltree.Node, cfg core.Config, sopts xmltree.SerializeOptions) (*Plan, []byte, error) {
	sites, rep, err := core.EnumerateEmbedSites(doc, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	payloadBits := len(cfg.WithDefaults().Mark)

	// Span capture: every physical item of every embeddable site becomes
	// a span target, so the canonical serialization reports exactly the
	// byte ranges splicing may rewrite.
	type itemRef struct{ site, item int }
	var targets []xmltree.SpanTarget
	var refs []itemRef
	for si, s := range sites {
		if s.Alg == nil {
			continue
		}
		for ii, item := range s.Unit.Items {
			targets = append(targets, xmltree.SpanTarget{Node: item.Node, Attr: item.Attr})
			refs = append(refs, itemRef{si, ii})
		}
	}
	var buf bytes.Buffer
	spans, err := xmltree.SerializeSpans(&buf, doc, sopts, targets)
	if err != nil {
		return nil, nil, fmt.Errorf("deliver: compile: %w", err)
	}
	canonical := buf.Bytes()

	// Pass A: per item, mirror the embedder for both bit values —
	// identical CanEmbed/Embed decisions, identical tallies — and
	// render the alternative bytes each bit choice would serialize to.
	type unitTally struct{ wrote, unemb [2]int }
	tallies := make([]unitTally, len(sites))
	marked := make(map[markedKey]markedValue)
	var planSites []Site
	for ti, ref := range refs {
		s := sites[ref.site]
		item := s.Unit.Items[ref.item]
		span := spans[ti]
		origSlice := string(canonical[span.Start:span.End])
		v := item.Value()
		if !s.Alg.CanEmbed(v) {
			tallies[ref.site].unemb[0]++
			tallies[ref.site].unemb[1]++
			continue
		}
		var alt, post [2]string
		wroteAny := false
		for b := 0; b < 2; b++ {
			nv, err := s.Alg.Embed(v, uint8(b), s.Params)
			if err != nil {
				tallies[ref.site].unemb[b]++
				alt[b] = origSlice
				post[b] = v
				continue
			}
			tallies[ref.site].wrote[b]++
			wroteAny = true
			if item.IsAttr() {
				alt[b] = xmltree.EscapeAttr(nv)
				post[b] = nv
			} else {
				clone := item.Node.Clone()
				clone.SetText(nv)
				var ab strings.Builder
				if err := xmltree.SerializeAt(&ab, clone, span.Depth, sopts); err != nil {
					return nil, nil, fmt.Errorf("deliver: compile: render alternative for %s: %w", s.Unit.ID, err)
				}
				alt[b] = ab.String()
				post[b] = clone.Text()
			}
		}
		if wroteAny {
			marked[markedKey{item.Node, item.Attr}] = markedValue{bit: s.BitIndex, post: post}
		}
		if alt[0] != origSlice || alt[1] != origSlice {
			planSites = append(planSites, Site{Start: span.Start, End: span.End, Bit: s.BitIndex, Alt: alt})
		}
	}

	// Pass B: simulate phase-2 query generation for every selected unit,
	// for both values of whichever payload bit its selector depends on.
	// Runs after pass A so cross-unit dependencies (an FD unit whose
	// determinant another unit marks) see the full marked-value table.
	units := make([]UnitPlan, len(sites))
	for si, s := range sites {
		u := s.Unit
		up := UnitPlan{
			ID:         u.ID,
			Type:       u.Type.String(),
			Target:     u.Scope + "/" + u.Field,
			Bit:        s.BitIndex,
			Wrote:      tallies[si].wrote,
			Unemb:      tallies[si].unemb,
			DependsBit: -1,
		}
		if s.Alg == nil {
			n := len(u.Items)
			up.Unemb = [2]int{n, n}
		}
		if up.Wrote[0] > 0 || up.Wrote[1] > 0 {
			// A nil variant keeps the pre-embedding query, exactly like
			// Rebuild's error path; it is built only if needed.
			var qs [2]*xpath.Query
			if selIt, ok := u.SelectorItem(); ok {
				if m, hit := marked[markedKey{selIt.Node, selIt.Attr}]; hit {
					up.DependsBit = m.bit
					for b := 0; b < 2; b++ {
						qs[b], _ = u.RebuildWithValue(m.post[b])
					}
				} else {
					qs[0], _ = u.RebuildWithValue(selIt.Value())
					qs[1] = qs[0]
				}
			}
			var fallback *xpath.Query
			for b, q := range qs {
				if q == nil {
					if fallback == nil {
						fallback = u.Query()
					}
					q = fallback
				}
				up.Query[b] = q.String()
			}
			if up.Query[0] == up.Query[1] {
				up.DependsBit = -1
			}
		}
		units[si] = up
	}

	sort.Slice(planSites, func(i, j int) bool { return planSites[i].Start < planSites[j].Start })
	p := &Plan{
		Version:         PlanVersion,
		Digest:          DigestBytes(canonical),
		DocLen:          len(canonical),
		Indent:          sopts.Indent,
		OmitDeclaration: sopts.OmitDeclaration,
		PayloadBits:     payloadBits,
		Sites:           planSites,
		Units:           units,
		Bandwidth:       rep,
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("deliver: compile produced an invalid plan: %w", err)
	}
	return p, canonical, nil
}
