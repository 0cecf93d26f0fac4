package identity

import (
	"strings"
	"testing"
	"testing/quick"

	"wmxml/internal/datagen"
	"wmxml/internal/schema"
	"wmxml/internal/semantics"
	"wmxml/internal/xmltree"
)

func pubDataset() *datagen.Dataset {
	return datagen.Publications(datagen.PubConfig{Books: 40, Editors: 6, Publishers: 3, Seed: 1})
}

func TestResolveTargetsExplicit(t *testing.T) {
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: ds.Targets})
	targets, err := b.ResolveTargets()
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	if targets[0].Scope != "db/book" || targets[0].Field != "year" || targets[0].Type != schema.TypeInteger {
		t.Errorf("target 0 = %+v", targets[0])
	}
	if targets[2].Field != "@publisher" || targets[2].Type != schema.TypeString {
		t.Errorf("target 2 = %+v", targets[2])
	}
}

func TestResolveTargetsErrors(t *testing.T) {
	ds := pubDataset()
	cases := []string{
		"db/book/nosuch",
		"db/nosuch/year",
		"book",
		"db/book/@missing",
		"db/book/author/year", // author is a leaf: scope resolution fails
	}
	for _, tgt := range cases {
		b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: []string{tgt}})
		if _, err := b.ResolveTargets(); err == nil {
			t.Errorf("target %q accepted", tgt)
		}
	}
}

func TestAutoTargets(t *testing.T) {
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{})
	targets, err := b.ResolveTargets()
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, tgt := range targets {
		names[tgt.String()] = true
	}
	// The key (title) must never be a target; multi-valued author must be
	// excluded; year/price/editor/@publisher are usable.
	if names["db/book/title"] {
		t.Errorf("key proposed as watermark target")
	}
	if names["db/book/author"] {
		t.Errorf("multi-valued field proposed as target")
	}
	for _, want := range []string{"db/book/year", "db/book/price", "db/book/@publisher", "db/book/editor"} {
		if !names[want] {
			t.Errorf("auto targets missing %s; got %v", want, targets)
		}
	}
}

func TestSemanticUnits(t *testing.T) {
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: []string{"db/book/year"}})
	units, rep, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 40 {
		t.Fatalf("units = %d, want 40 (one per book)", len(units))
	}
	if rep.Units != 40 || rep.PhysicalItems != 40 {
		t.Errorf("report = %+v", rep)
	}
	// Every unit's query must resolve to exactly its item.
	for _, u := range units[:10] {
		items := u.Query().Select(ds.Doc)
		if len(items) != 1 {
			t.Fatalf("query %q resolved %d items", u.Query(), len(items))
		}
		if items[0] != u.Items[0] {
			t.Errorf("query %q resolved a different item", u.Query())
		}
		if !strings.Contains(u.Query().String(), "[title=") {
			t.Errorf("identity query not key-based: %q", u.Query())
		}
	}
	// IDs are unique.
	seen := make(map[string]bool)
	for _, u := range units {
		if seen[u.ID] {
			t.Errorf("duplicate unit ID %q", u.ID)
		}
		seen[u.ID] = true
	}
}

func TestFDDependentGrouping(t *testing.T) {
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: []string{"db/book/@publisher"}})
	units, rep, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	// One unit per editor (grouping value), not per book.
	if len(units) > 6 {
		t.Errorf("units = %d, want <= 6 editors", len(units))
	}
	if rep.PhysicalItems != 40 {
		t.Errorf("physical items = %d, want 40", rep.PhysicalItems)
	}
	groups := 0
	for _, u := range units {
		if u.GroupValue == "" {
			t.Errorf("FD unit missing group value")
		}
		if !strings.Contains(u.Query().String(), "[editor=") {
			t.Errorf("FD identity not determinant-based: %q", u.Query())
		}
		if len(u.Items) >= 2 {
			groups++
			// All members must hold the same value (the FD guarantees it).
			v := u.Items[0].Value()
			for _, it := range u.Items {
				if it.Value() != v {
					t.Errorf("FD group %q members disagree: %q vs %q", u.GroupValue, v, it.Value())
				}
			}
		}
	}
	if groups == 0 {
		t.Errorf("no multi-member FD groups; dataset should have redundancy")
	}
	if rep.FDGroups != groups {
		t.Errorf("report FDGroups = %d, counted %d", rep.FDGroups, groups)
	}
}

func TestFDDeterminantGrouping(t *testing.T) {
	// editor is the determinant of editor -> @publisher: units for the
	// editor field group by the editor's own value.
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: []string{"db/book/editor"}})
	units, _, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) > 6 {
		t.Errorf("determinant units = %d, want <= 6 editors", len(units))
	}
	for _, u := range units {
		if !strings.HasPrefix(u.ID, "det\x1f") {
			t.Errorf("determinant unit ID kind = %q", u.ID)
		}
	}
}

func TestDisableFDsAblation(t *testing.T) {
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{
		Targets: []string{"db/book/@publisher"}, DisableFDs: true})
	units, _, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 40 {
		t.Errorf("FD-disabled units = %d, want 40 (per book)", len(units))
	}
	for _, u := range units {
		if u.GroupValue != "" {
			t.Errorf("FD grouping active despite DisableFDs")
		}
	}
}

func TestPositionalUnits(t *testing.T) {
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{
		Targets: []string{"db/book/year"}, Mode: ModePositional})
	units, _, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 40 {
		t.Fatalf("units = %d", len(units))
	}
	q := units[2].Query()
	if !strings.Contains(q.String(), "book[3]") {
		t.Errorf("positional query = %q", q)
	}
	items := q.Select(ds.Doc)
	if len(items) != 1 || items[0] != units[2].Items[0] {
		t.Errorf("positional query resolution mismatch")
	}
}

func TestMissingKeySkipped(t *testing.T) {
	doc := xmltree.MustParseString(`<db><book><title>A</title><year>1999</year></book><book><year>2000</year></book></db>`)
	s := schema.Infer("t", doc)
	cat := semantics.Catalog{Keys: []semantics.Key{{Scope: "db/book", KeyPath: "title"}}}
	b := NewBuilder(s, cat, Options{Targets: []string{"db/book/year"}})
	units, rep, err := b.Units(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Errorf("units = %d, want 1", len(units))
	}
	if rep.Skipped["missing key value"] != 1 {
		t.Errorf("skipped = %v", rep.Skipped)
	}
}

func TestNoKeyForScope(t *testing.T) {
	ds := pubDataset()
	cat := semantics.Catalog{} // no keys at all
	b := NewBuilder(ds.Schema, cat, Options{Targets: []string{"db/book/year"}})
	units, rep, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 0 {
		t.Errorf("units without key = %d", len(units))
	}
	found := false
	for k := range rep.Skipped {
		if strings.Contains(k, "no key") {
			found = true
		}
	}
	if !found {
		t.Errorf("no-key skip not reported: %v", rep.Skipped)
	}
}

func TestQuotingInIdentityQueries(t *testing.T) {
	doc := xmltree.MustParseString(`<db>
	  <book publisher="P1"><title>O'Reilly Guide</title><editor>Ann O'Neil</editor><year>2001</year></book>
	  <book publisher="P2"><title>The "Best" Book</title><editor>Bo "B" Li</editor><year>2002</year></book>
	  <book publisher="P3"><title>Both ' and " inside</title><editor>Cy ' and " Wu</editor><year>2003</year></book>
	</db>`)
	s := schema.Infer("t", doc)
	cat := semantics.Catalog{
		Keys: []semantics.Key{{Scope: "db/book", KeyPath: "title"}},
		FDs:  []semantics.FD{{Scope: "db/book", Determinant: "editor", Dependent: "@publisher"}},
	}
	for _, tc := range []struct {
		target, kind string
	}{
		{"db/book/year", "key"},      // key value with both quote kinds
		{"db/book/@publisher", "fd"}, // FD determinant with both quote kinds
		{"db/book/editor", "det"},    // det-unit value with both quote kinds
	} {
		b := NewBuilder(s, cat, Options{Targets: []string{tc.target}})
		units, rep, err := b.Units(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Two quotable selector values; the both-quotes one is skipped.
		if len(units) != 2 {
			t.Fatalf("%s: units = %d, want 2", tc.target, len(units))
		}
		if rep.Skipped["unquotable value"] != 1 {
			t.Errorf("%s: skipped = %v", tc.target, rep.Skipped)
		}
		for _, u := range units {
			if !strings.HasPrefix(u.ID, tc.kind+"\x1f") {
				t.Errorf("%s: unit kind of %q, want %s", tc.target, u.ID, tc.kind)
			}
			q := u.Query()
			if got := q.Select(doc); len(got) != 1 || got[0] != u.Items[0] {
				t.Errorf("%s: query %q resolved %d items", tc.target, q, len(got))
			}
		}
	}
}

func TestNestedScopeUnits(t *testing.T) {
	// Records two levels deep: scope "catalog/publisher/book".
	ds := datagen.NestedPublications(datagen.NestedConfig{Books: 50, Publishers: 4, Seed: 9})
	b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: ds.Targets})
	units, rep, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	// year + price per book.
	if len(units) != 100 {
		t.Fatalf("units = %d, want 100", len(units))
	}
	if rep.PhysicalItems != 100 {
		t.Errorf("physical items = %d", rep.PhysicalItems)
	}
	for _, u := range units[:10] {
		if !strings.HasPrefix(u.Query().String(), "/catalog/publisher/book[title=") {
			t.Errorf("nested identity query = %q", u.Query())
		}
		items := u.Query().Select(ds.Doc)
		if len(items) != 1 || items[0] != u.Items[0] {
			t.Errorf("nested query %q resolution mismatch (%d items)", u.Query(), len(items))
		}
	}
}

func TestUnitIDStableAcrossReorder(t *testing.T) {
	// Semantic IDs must not change when the document is reordered.
	ds := pubDataset()
	b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: []string{"db/book/year"}})
	units1, _, err := b.Units(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse book order.
	cp := ds.Doc.Clone()
	root := cp.Root()
	kids := append([]*xmltree.Node(nil), root.Children...)
	root.RemoveChildren()
	for i := len(kids) - 1; i >= 0; i-- {
		root.AppendChild(kids[i])
	}
	units2, _, err := b.Units(cp)
	if err != nil {
		t.Fatal(err)
	}
	ids1 := make(map[string]bool)
	for _, u := range units1 {
		ids1[u.ID] = true
	}
	for _, u := range units2 {
		if !ids1[u.ID] {
			t.Fatalf("ID %q changed under reordering", u.ID)
		}
	}

	// Positional IDs, by contrast, shuffle.
	bp := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: []string{"db/book/year"}, Mode: ModePositional})
	p1, _, _ := bp.Units(ds.Doc)
	p2, _, _ := bp.Units(cp)
	same := 0
	for i := range p1 {
		if p1[i].Items[0].Value() == p2[i].Items[0].Value() {
			same++
		}
	}
	if same == len(p1) {
		t.Errorf("positional identities unaffected by reordering — ablation meaningless")
	}
}

func TestQuickUnitQueriesResolveExactly(t *testing.T) {
	// Property over random datasets: every enumerated unit's query
	// selects exactly the unit's items, no more, no fewer.
	f := func(seed int64, size uint8) bool {
		n := 10 + int(size)%80
		ds := datagen.Publications(datagen.PubConfig{Books: n, Seed: seed})
		b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: ds.Targets})
		units, _, err := b.Units(ds.Doc)
		if err != nil {
			return false
		}
		for _, u := range units {
			items := u.Query().Select(ds.Doc)
			if len(items) != len(u.Items) {
				return false
			}
			for i := range items {
				if items[i] != u.Items[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Errorf("unit-query resolution property: %v", err)
	}
}
