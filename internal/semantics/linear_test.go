package semantics_test

// Verification stays linear in the document. Node.Path scans the
// siblings, so building a path for every key instance or every schema
// violation is quadratic on a wide parent; a path is built only for
// what is reported. Linear work reads about 4 from n to 4n records,
// quadratic work about 16.

import (
	"testing"
	"time"

	"wmxml/internal/datagen"
	"wmxml/internal/xmltree"
)

// bestOf3 returns the fastest of three runs of f.
func bestOf3(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

func TestVerifyAndValidateLinear(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		setup func(t *testing.T, n int) func()
	}{
		{"key-verify", 4000, func(t *testing.T, n int) func() {
			// Well-formed publications: every key instance checked, none
			// reported.
			ds := datagen.Publications(datagen.PubConfig{Books: n, Seed: 3})
			return func() {
				if _, _, err := ds.Catalog.Verify(ds.Doc); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"validate", 10000, func(t *testing.T, n int) func() {
			// A root holding n undeclared children: n violations.
			schema := datagen.Publications(datagen.PubConfig{Books: 1}).Schema
			root := xmltree.NewElement("db")
			for i := 0; i < n; i++ {
				root.AppendChild(xmltree.NewElement("zz"))
			}
			doc := xmltree.NewDocument()
			doc.AppendChild(root)
			return func() {
				if vs := schema.Validate(doc); len(vs) < n {
					t.Fatalf("%d violations, want at least %d", len(vs), n)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small := bestOf3(tc.setup(t, tc.n))
			large := bestOf3(tc.setup(t, 4*tc.n))
			ratio := float64(large) / float64(small)
			t.Logf("n=%d: %v, 4n: %v, ratio %.1f", tc.n, small, large, ratio)
			if ratio >= 8 {
				t.Errorf("time(4n)/time(n) = %.1f, want < 8 (linear work reads about 4)", ratio)
			}
		})
	}
}
