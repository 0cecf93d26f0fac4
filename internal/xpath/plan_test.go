package xpath_test

// Plan equivalence: for every query shape — indexable or not — Eval
// through a document index must return bit-for-bit the same items in
// the same order as the tree-walking evaluator. These tests run the
// real internal/index implementation against a document exercising
// duplicate tags at different depths, multi-parent scopes, attributes,
// FD-style duplicate values and nested same-name elements.

import (
	"reflect"
	"testing"

	"wmxml/internal/index"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

const planDoc = `<db>
  <book id="b1"><title>Alpha</title><year>1990</year><author>Ann</author><author>Bob</author><price>10.5</price></book>
  <book id="b2"><title>Beta</title><year>1995</year><author>Cid</author><price>20</price></book>
  <book id="b3"><title>Alpha</title><year>2001</year><author>Ann</author><price>10.5</price></book>
  <book id="b4"><title>Gamma</title><year>1990</year><price>7</price></book>
  <shelf>
    <book id="n1"><title>Nested</title><year>2020</year></book>
  </shelf>
  <pub name="ACM"><book id="p1"><title>Alpha</title></book><book id="p2"><title>Delta</title></book></pub>
  <pub name="IEEE"><book id="p3"><title>Epsilon</title></book></pub>
</db>`

func parsePlanDoc(t testing.TB) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(planDoc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

var planQueries = []string{
	// Identity-query shapes: key-value lookups.
	"/db/book[title='Beta']/year",
	"/db/book[title='Alpha']/year",    // two matches
	"/db/book[title='Missing']/year",  // miss
	"/db/book[title='Alpha']/@id",     // attribute tail
	"/db/book[@id='b2']/title",        // attribute selector
	"/db/book[author='Ann']/title",    // multi-valued selector
	"/db/book[title='Beta']",          // no tail
	"db/book[title='Beta']/year",      // relative from the document node
	"/db/pub[@name='ACM']/book/title", // tail with further steps
	// Rooted path scans (no predicate).
	"/db/book/year",
	"/db/book",
	"/db/shelf/book/title",
	"/db/missing/x",
	"/db/book/author",
	// Positional predicates (single parent group: exact via index).
	"/db/book[2]/title",
	"/db/book[1]",
	"/db/book[9]/title",
	"/db/book[position()=3]/title",
	"/db/book[last()]/title",
	"/db/book[count(author)]/title", // numeric-valued call: positional
	// Multi-parent scope with positional predicate (per-group semantics;
	// plan must fall back and still match).
	"/db/pub/book[1]/title",
	"/db/pub/book[last()]/title",
	// Descendant-rooted shapes: tag inverted index.
	"//book[title='Alpha']/year",
	"//book/title",
	"//book[3]/title",
	"//title",
	"//book//title",
	"//pub/book/title",
	// Filters that stay position-free.
	"/db/book[year>1994]/title",
	"/db/book[title='Alpha'][year='1990']/author",
	"/db/book[not(author)]/title",
	"/db/book[contains(title,'a')]/title",
	"/db/book[author and price]/title",
	// Shapes the index cannot serve: wildcard, parent axis, text steps.
	"/db/*/title",
	"/db/book/../shelf/book/title",
	"/db/book[title='Alpha']/year/text()",
	"/db/book/year/text()",
	"/*",
	".",
	"/",
}

func TestPlanEquivalence(t *testing.T) {
	doc := parsePlanDoc(t)
	ix := index.New(doc)
	// One Scratch serves the whole table, as a pooled one serves every
	// query of a warm decode.
	var sc xpath.Scratch
	for _, src := range planQueries {
		q, err := xpath.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		want := q.Select(doc)
		got := q.SelectIndexed(doc, ix)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q: indexed mismatch\nwalk:    %v\nindexed: %v", src, itemValues(want), itemValues(got))
		}
		// Second run serves the key-value tables from cache.
		if again := q.SelectIndexed(doc, ix); !reflect.DeepEqual(want, again) {
			t.Errorf("%q: cached indexed mismatch", src)
		}
		if got := q.SelectIndexedScratch(doc, ix, &sc); !sameItems(want, got) {
			t.Errorf("%q: scratch mismatch\nwalk:    %v\nscratch: %v", src, itemValues(want), itemValues(got))
		}
	}
}

// Relative queries evaluated from an instance node (not the document)
// must bypass the index and still be correct.
func TestPlanRelativeFromInstance(t *testing.T) {
	doc := parsePlanDoc(t)
	ix := index.New(doc)
	inst := doc.Root().ChildElementsNamed("book")[1]
	var sc xpath.Scratch
	for _, src := range []string{"title", "author", "@id", "..", "."} {
		q, err := xpath.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Select(inst)
		got := q.SelectIndexed(inst, ix)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q from instance: mismatch", src)
		}
		if got := q.SelectIndexedScratch(inst, ix, &sc); !sameItems(want, got) {
			t.Errorf("%q from instance: scratch mismatch", src)
		}
	}
	// Absolute queries from an instance restart at the document and may
	// use the index.
	q := xpath.MustCompile("/db/book[title='Beta']/year")
	want := q.Select(inst)
	if !reflect.DeepEqual(want, q.SelectIndexed(inst, ix)) {
		t.Error("absolute query from instance: mismatch")
	}
	if !sameItems(want, q.SelectIndexedScratch(inst, ix, &sc)) {
		t.Error("absolute query from instance: scratch mismatch")
	}
}

// An index built over one document must not serve queries against
// another.
func TestPlanForeignIndexFallsBack(t *testing.T) {
	doc := parsePlanDoc(t)
	other, err := xmltree.ParseString(`<db><book><title>Beta</title><year>3000</year></book></db>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(other)
	q := xpath.MustCompile("/db/book[title='Beta']/year")
	got := q.SelectIndexed(doc, ix)
	want := q.Select(doc)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("foreign index: got %v want %v", itemValues(got), itemValues(want))
	}
}

// Absolute queries over a detached subtree treat its top element as the
// document element; the index mirrors that.
func TestPlanDetachedSubtree(t *testing.T) {
	doc := parsePlanDoc(t)
	sub := doc.Root().ChildElementsNamed("book")[0].Clone()
	ix := index.New(sub)
	var sc xpath.Scratch
	for _, src := range []string{"/book/title", "/book[title='Alpha']/year", "//author"} {
		q := xpath.MustCompile(src)
		want := q.Select(sub)
		got := q.SelectIndexed(sub, ix)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q on detached subtree: walk %v indexed %v", src, itemValues(want), itemValues(got))
		}
		if got := q.SelectIndexedScratch(sub, ix, &sc); !sameItems(want, got) {
			t.Errorf("%q on detached subtree: walk %v scratch %v", src, itemValues(want), itemValues(got))
		}
	}
}

// FuzzPlanEquivalence asserts that every accepted query selects the same
// items in the same order over planDoc through the tree walk, the
// index-served plan and the plan on one Scratch reused across inputs.
func FuzzPlanEquivalence(f *testing.F) {
	for _, src := range planQueries {
		f.Add(src)
	}
	doc := parsePlanDoc(f)
	ix := index.New(doc)
	var sc xpath.Scratch
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xpath.Compile(src)
		if err != nil {
			return
		}
		want := q.Select(doc)
		if got := q.SelectIndexed(doc, ix); !sameItems(want, got) {
			t.Fatalf("%q: walk %v indexed %v", src, itemValues(want), itemValues(got))
		}
		if got := q.SelectIndexedScratch(doc, ix, &sc); !sameItems(want, got) {
			t.Fatalf("%q: walk %v scratch %v", src, itemValues(want), itemValues(got))
		}
	})
}

func TestPlanClassification(t *testing.T) {
	cases := []struct {
		src       string
		indexable bool
		usesKV    bool
		scope     string
	}{
		{"/db/book[title='X']/year", true, true, "db/book"},
		{"/db/book/year", true, false, "db/book/year"}, // clean chain: direct path lookup
		{"//book[title='X']", true, true, "//book"},
		{"/db/book[5]/title", true, false, "db/book"},
		{"/db/*/year", true, false, "db"}, // indexes the clean prefix, walks the rest
		{"//*", false, false, ""},
		{".", false, false, ""},
	}
	for _, c := range cases {
		q := xpath.MustCompile(c.src)
		pl := q.Plan()
		if pl.Indexable() != c.indexable || pl.UsesKV() != c.usesKV || pl.Scope() != c.scope {
			t.Errorf("%q: plan = (indexable %v, kv %v, scope %q), want (%v, %v, %q)",
				c.src, pl.Indexable(), pl.UsesKV(), pl.Scope(), c.indexable, c.usesKV, c.scope)
		}
	}
}

// Element names containing '/' cannot key the index (scope strings join
// segments with '/'); such paths must fall back to the walk, not return
// empty.
func TestPlanSlashInNameFallsBack(t *testing.T) {
	doc := xmltree.NewDocument()
	root := xmltree.Elem("db", xmltree.TextElem("a/b", "v"))
	doc.AppendChild(root)
	p := xpath.Path{Absolute: true, Steps: []xpath.Step{
		{Axis: xpath.AxisChild, Name: "db"},
		{Axis: xpath.AxisChild, Name: "a/b"},
	}}
	q := xpath.FromPath(p)
	if q.Plan().Scope() == "db/a/b" {
		t.Fatal("slash-named step must not join into the scope string")
	}
	ix := index.New(doc)
	want := q.Select(doc)
	got := q.SelectIndexed(doc, ix)
	if len(want) != 1 || !reflect.DeepEqual(want, got) {
		t.Fatalf("slash-named element: walk %v indexed %v", itemValues(want), itemValues(got))
	}
}

func TestPlanNilIndex(t *testing.T) {
	doc := parsePlanDoc(t)
	q := xpath.MustCompile("/db/book[title='Beta']/year")
	var typedNil *index.Index
	for _, ix := range []xpath.DocIndex{nil, typedNil, index.New(nil)} {
		if got := q.SelectIndexed(doc, ix); len(got) != 1 || got[0].Value() != "1995" {
			t.Fatalf("nil-ish index: got %v", itemValues(got))
		}
	}
}

// sameItems compares two results item for item.
func sameItems(a, b []xpath.Item) bool {
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

func itemValues(items []xpath.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Value()
	}
	return out
}
