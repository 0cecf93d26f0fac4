package core

// The merge rule of DecodePlan: a document decoded in parts that share
// no record element, their tallies merged in any order, decodes exactly
// as the whole document does — per-bit votes, misses and every counter,
// through a receipt plan and through a blind plan.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wmxml/internal/datagen"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// priceRefuser translates every query unchanged except the price
// queries, which it refuses.
type priceRefuser struct{}

func (priceRefuser) RewriteQuery(q *xpath.Query) (*xpath.Query, error) {
	if strings.HasSuffix(q.String(), "/price") {
		return nil, fmt.Errorf("no mapping for price")
	}
	return q, nil
}

// splitDoc cuts the root's children of doc into contiguous runs at the
// given ascending positions. Each part is a new document whose copy of
// the root holds deep copies of one run.
func splitDoc(doc *xmltree.Node, cuts []int) []*xmltree.Node {
	root := doc.Root()
	bounds := append(append([]int{0}, cuts...), len(root.Children))
	parts := make([]*xmltree.Node, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		rootCopy := &xmltree.Node{Kind: xmltree.ElementNode, Name: root.Name, Attrs: root.Attrs}
		for _, c := range root.Children[bounds[i]:bounds[i+1]] {
			rootCopy.AppendChild(c.Clone())
		}
		part := xmltree.NewDocument()
		part.AppendChild(rootCopy)
		parts = append(parts, part)
	}
	return parts
}

// mergeFixture marks a pubs document with every unit a carrier, then
// makes some values unreadable: half the editors' FD groups lose every
// publisher value, the other half every other one, and every seventh
// year is not a number. It returns the suspect and its receipt.
func mergeFixture(t *testing.T) (*xmltree.Node, Config, []QueryRecord) {
	t.Helper()
	ds := datagen.Publications(datagen.PubConfig{Books: 120, Editors: 12, Publishers: 4, Seed: 5})
	cfg := pubConfig(ds, "merge-key", "merge-mark")
	cfg.Gamma = 1
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	books := doc.Root().ChildElementsNamed("book")
	byEditor := map[string][]*xmltree.Node{}
	for _, b := range books {
		ed := b.FirstChildNamed("editor").Text()
		byEditor[ed] = append(byEditor[ed], b)
	}
	editors := make([]string, 0, len(byEditor))
	for ed := range byEditor {
		editors = append(editors, ed)
	}
	sort.Strings(editors)
	for i, ed := range editors {
		for j, b := range byEditor[ed] {
			if i%2 == 0 || j%2 == 0 {
				b.SetAttr("publisher", "0000")
			}
		}
	}
	for i := 0; i < len(books); i += 7 {
		books[i].FirstChildNamed("year").SetText("unknown")
	}
	// A record no part selects: no book has this title.
	records := append(er.Records[:len(er.Records):len(er.Records)], QueryRecord{
		ID:     "key\x1fdb/book\x1fyear\x1fno such title",
		Query:  "/db/book[title='no such title']/year",
		Type:   "integer",
		Target: "db/book/year",
	})
	return doc, cfg, records
}

func TestDecodePartsMergeToWhole(t *testing.T) {
	doc, cfg, records := mergeFixture(t)
	receipt, err := CompileDecodePlan(cfg, records, priceRefuser{})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := CompileBlindPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(doc.Root().Children)
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		plan *DecodePlan
	}{{"receipt", receipt}, {"blind", blind}} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.plan.Decode(doc, nil)
			// The fixture must exercise every counter the rule decides.
			if want.QueriesRun == 0 || want.QueryMisses == 0 || want.Votes.Misses() <= want.QueryMisses+want.RewriteErrors {
				t.Fatalf("degenerate fixture: run=%d miss=%d rw=%d vote-misses=%d",
					want.QueriesRun, want.QueryMisses, want.RewriteErrors, want.Votes.Misses())
			}
			if tc.plan == receipt && want.RewriteErrors == 0 {
				t.Fatal("degenerate fixture: the rewriter refused nothing")
			}
			for trial := 0; trial < 60; trial++ {
				cuts := rng.Perm(n - 1)[:rng.Intn(5)]
				for i := range cuts {
					cuts[i]++
				}
				sort.Ints(cuts)
				parts := splitDoc(doc, cuts)
				sum := tc.plan.NewTally()
				for _, i := range rng.Perm(len(parts)) {
					sum.Merge(tc.plan.DecodePart(parts[i], nil))
				}
				sameDecode(t, sum.Result(), want)
			}
		})
	}
}
