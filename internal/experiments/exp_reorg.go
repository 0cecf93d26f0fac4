package experiments

import (
	"math/rand"
	"sort"

	"wmxml/internal/attack"
	"wmxml/internal/baseline"
	"wmxml/internal/core"
	"wmxml/internal/identity"
	"wmxml/internal/rewrite"
)

// E4Reorganization reproduces demonstration attack (C) and the paper's
// figures 1–2: the document is re-shredded under a new schema; WmXML
// rewrites its identity queries through the schema mapping and keeps
// detecting, while the structure-labelled baseline [5] and the
// positional-identity ablation collapse to coin-flipping.
func E4Reorganization(p Params) (*Table, error) {
	s, err := newSetup(p)
	if err != nil {
		return nil, err
	}
	t := NewTable("E4", "attack (C) re-organization (figure 1): WmXML vs baselines",
		"scheme", "attack", "match", "coverage", "detected", "usability")

	rw, err := rewrite.NewQueryRewriter(s.mapping)
	if err != nil {
		return nil, err
	}
	reorg := attack.Reorganization{Mapping: s.mapping}
	reorder := attack.Reorder{}

	// --- WmXML semantic identities, query rewriting at detection. ---
	{
		doc := s.ds.Doc.Clone()
		er, err := core.Embed(doc, s.cfg)
		if err != nil {
			return nil, err
		}
		attacked, err := reorg.Apply(doc, rand.New(rand.NewSource(s.p.Seed)))
		if err != nil {
			return nil, err
		}
		dr, err := core.DetectWithQueries(attacked, s.cfg, er.Records, rw)
		if err != nil {
			return nil, err
		}
		u := s.meter.Measure(attacked, rw)
		t.AddRow("wmxml(semantic+rewrite)", "reorganize", dr.MatchFraction, dr.Coverage, dr.Detected, u.Usability())
	}

	// --- WmXML without rewriting: original queries on the new layout. ---
	{
		doc := s.ds.Doc.Clone()
		er, err := core.Embed(doc, s.cfg)
		if err != nil {
			return nil, err
		}
		attacked, err := reorg.Apply(doc, rand.New(rand.NewSource(s.p.Seed)))
		if err != nil {
			return nil, err
		}
		dr, err := core.DetectWithQueries(attacked, s.cfg, er.Records, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow("wmxml(no rewrite)", "reorganize", dr.MatchFraction, dr.Coverage, dr.Detected, "-")
	}

	// --- Positional-identity ablation: ordinals cannot be rewritten. ---
	{
		cfg := s.cfg
		cfg.Identity = identity.Options{Targets: s.ds.Targets, Mode: identity.ModePositional}
		doc := s.ds.Doc.Clone()
		er, err := core.Embed(doc, cfg)
		if err != nil {
			return nil, err
		}
		attacked, err := reorg.Apply(doc, rand.New(rand.NewSource(s.p.Seed)))
		if err != nil {
			return nil, err
		}
		dr, err := core.DetectWithQueries(attacked, cfg, er.Records, rw)
		if err != nil {
			return nil, err
		}
		t.AddRow("wmxml(positional)", "reorganize", dr.MatchFraction, dr.Coverage, dr.Detected, "-")
	}

	// --- Sion-style structure-labelled baseline. ---
	bcfg := baseline.Config{Key: s.cfg.Key, Mark: s.cfg.Mark, Gamma: 4, Xi: s.cfg.Xi}
	{
		doc := s.ds.Doc.Clone()
		if _, err := baseline.Embed(doc, bcfg); err != nil {
			return nil, err
		}
		attacked, err := reorg.Apply(doc, rand.New(rand.NewSource(s.p.Seed)))
		if err != nil {
			return nil, err
		}
		br, err := baseline.Detect(attacked, bcfg)
		if err != nil {
			return nil, err
		}
		t.AddRow("baseline(structure-label)", "reorganize", br.Detection.MatchFraction, br.Detection.Coverage, br.Detection.Detected, "-")
	}

	// --- Re-ordering only (weaker structural attack): WmXML unaffected,
	// baseline still dies. ---
	{
		doc := s.ds.Doc.Clone()
		er, err := core.Embed(doc, s.cfg)
		if err != nil {
			return nil, err
		}
		attacked, err := reorder.Apply(doc, rand.New(rand.NewSource(s.p.Seed+1)))
		if err != nil {
			return nil, err
		}
		dr, err := core.DetectWithQueries(attacked, s.cfg, er.Records, nil)
		if err != nil {
			return nil, err
		}
		u := s.meter.Measure(attacked, nil)
		t.AddRow("wmxml(semantic)", "reorder", dr.MatchFraction, dr.Coverage, dr.Detected, u.Usability())
	}
	{
		doc := s.ds.Doc.Clone()
		if _, err := baseline.Embed(doc, bcfg); err != nil {
			return nil, err
		}
		attacked, err := reorder.Apply(doc, rand.New(rand.NewSource(s.p.Seed+1)))
		if err != nil {
			return nil, err
		}
		br, err := baseline.Detect(attacked, bcfg)
		if err != nil {
			return nil, err
		}
		t.AddRow("baseline(structure-label)", "reorder", br.Detection.MatchFraction, br.Detection.Coverage, br.Detection.Detected, "-")
	}

	t.AddNote("expected shape: wmxml+rewrite ≈ 1.0 match & usability 1.0; baselines ≈ 0.5 match (chance), not detected")
	return t, nil
}

// E6RewriteFidelity reproduces §2.2/figure 2 directly: every identity
// query, rewritten under the figure-1 mapping, must retrieve the same
// values from the re-organized document as the original query retrieved
// from the original document.
func E6RewriteFidelity(p Params) (*Table, error) {
	s, err := newSetup(p)
	if err != nil {
		return nil, err
	}
	builder := identity.NewBuilder(s.ds.Schema, s.ds.Catalog, identity.Options{Targets: s.ds.Targets})
	units, _, err := builder.Units(s.ds.Doc)
	if err != nil {
		return nil, err
	}
	reorgDoc, err := rewrite.Transform(s.ds.Doc, s.mapping)
	if err != nil {
		return nil, err
	}
	rw, err := rewrite.NewQueryRewriter(s.mapping)
	if err != nil {
		return nil, err
	}
	t := NewTable("E6", "identity-query rewriting fidelity (figure 2)",
		"target", "queries", "rewritten", "value_preserving", "fidelity")
	perField := make(map[string][3]int) // queries, rewritten, preserved
	var fields []string
	for _, u := range units {
		key := u.Scope + "/" + u.Field
		c := perField[key]
		if c[0] == 0 {
			fields = append(fields, key)
		}
		c[0]++
		q := u.Query()
		rq, err := rw.RewriteQuery(q)
		if err == nil {
			c[1]++
			want := valueSet(q.SelectValues(s.ds.Doc))
			got := valueSet(rq.SelectValues(reorgDoc))
			if equalSets(want, got) {
				c[2]++
			}
		}
		perField[key] = c
	}
	sort.Strings(fields)
	for _, f := range fields {
		c := perField[f]
		t.AddRow(f, c[0], c[1], c[2], float64(c[2])/float64(c[0]))
	}
	t.AddNote("expected shape: fidelity 1.0 for every mapped target")
	return t, nil
}

// valueSet de-duplicates and sorts values; re-organization legitimately
// collapses FD duplicates, so fidelity compares information content.
func valueSet(vals []string) []string {
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// F1InfoPreservation reproduces figure 1's premise: db1.xml can be
// re-organized into db2.xml "without losing any information". The record
// bag survives the round trip and usability through the rewriter is
// perfect.
func F1InfoPreservation(p Params) (*Table, error) {
	s, err := newSetup(p)
	if err != nil {
		return nil, err
	}
	t := NewTable("F1", "re-organization preserves information (figure 1)",
		"check", "result")
	recs1, err := rewrite.Extract(s.ds.Doc, s.mapping.Source)
	if err != nil {
		return nil, err
	}
	db2, err := rewrite.Transform(s.ds.Doc, s.mapping)
	if err != nil {
		return nil, err
	}
	back, err := rewrite.Transform(db2, s.mapping.Invert())
	if err != nil {
		return nil, err
	}
	recs2, err := rewrite.Extract(back, s.mapping.Source)
	if err != nil {
		return nil, err
	}
	t.AddRow("record bag identical after db1→db2→db1", rewrite.RecordsEqual(recs1, recs2))

	rw, err := rewrite.NewQueryRewriter(s.mapping)
	if err != nil {
		return nil, err
	}
	u := s.meter.Measure(db2, rw)
	t.AddRow("usability of db2 through rewritten templates", u.Usability())
	uRaw := s.meter.Measure(db2, nil)
	t.AddRow("usability of db2 with UN-rewritten templates", uRaw.Usability())
	t.AddNote("records: %d; probes: %d", len(recs1), u.Probes)
	return t, nil
}
