package identity

import (
	"testing"

	"wmxml/internal/datagen"
	"wmxml/internal/index"
)

// UnitsIndexed must enumerate exactly the units of Units — same IDs,
// same queries, same physical items — for both identity modes.
func TestUnitsIndexedEquivalence(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 200, Editors: 20, Publishers: 5, Seed: 3})
	for _, mode := range []Mode{ModeSemantic, ModePositional} {
		b := NewBuilder(ds.Schema, ds.Catalog, Options{Targets: ds.Targets, Mode: mode})
		plain, prep, err := b.Units(ds.Doc)
		if err != nil {
			t.Fatal(err)
		}
		indexed, irep, err := b.UnitsIndexed(ds.Doc, index.New(ds.Doc))
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) == 0 || len(plain) != len(indexed) {
			t.Fatalf("mode %d: %d vs %d units", mode, len(plain), len(indexed))
		}
		if prep.Units != irep.Units || prep.PhysicalItems != irep.PhysicalItems || prep.FDGroups != irep.FDGroups {
			t.Fatalf("mode %d: reports differ: %+v vs %+v", mode, prep, irep)
		}
		for i := range plain {
			p, x := plain[i], indexed[i]
			if p.ID != x.ID || p.Query().String() != x.Query().String() || p.Type != x.Type {
				t.Fatalf("mode %d unit %d: %q/%q vs %q/%q", mode, i, p.ID, p.Query(), x.ID, x.Query())
			}
			if len(p.Items) != len(x.Items) {
				t.Fatalf("mode %d unit %d: item counts differ", mode, i)
			}
			for j := range p.Items {
				if p.Items[j] != x.Items[j] {
					t.Fatalf("mode %d unit %d item %d: different physical items", mode, i, j)
				}
			}
		}
	}
}
