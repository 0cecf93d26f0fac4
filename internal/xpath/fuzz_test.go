package xpath

// Native fuzz targets for the query front-end. Run short in CI
// (go test -fuzz FuzzParsePath -fuzztime 10s); seed corpora live in
// testdata/fuzz.

import (
	"testing"

	"wmxml/internal/xmltree"
)

// fuzzEvalDoc is small but exercises every axis: nested elements,
// repeated tags, attributes, mixed text.
const fuzzEvalDoc = `<db a="1"><b x="y"><c>t1</c><c>t2</c></b><b><c>t3</c></b>mixed</db>`

// FuzzParsePath asserts the parser's contract on arbitrary input: no
// panic, and for accepted input a render -> reparse -> render fixpoint
// (the planner and the rewriter both rely on rendering round-trips).
// Accepted paths must also plan and evaluate without panicking, and the
// plan must agree with the tree walk.
func FuzzParsePath(f *testing.F) {
	for _, seed := range []string{
		"/db/book[title='DB Design']/author",
		"db/publisher/author[book='DB Design']/@name",
		"//book[year>1995][position()=1]/title",
		"db/book[title and not(editor)]/year/text()",
		"/db/book[@id=\"x'y\"]/..",
		"*[2]/../.",
		"a[count(b[c='1'])>2 or starts-with(d,'e')]",
		"a[substring(concat(b,'x'),1,2)='bx']",
		"//*",
		"/",
		".",
		"a[1.5]",
		"a['" + `unterminated`,
		"a[[",
		"a]b",
	} {
		f.Add(seed)
	}
	doc := xmltree.MustParseString(fuzzEvalDoc)
	f.Fuzz(func(t *testing.T, src string) {
		path, err := ParsePath(src)
		if err != nil {
			return
		}
		rendered := path.String()
		again, err := ParsePath(rendered)
		if err != nil {
			t.Fatalf("rendering of accepted input does not reparse: %q -> %q: %v", src, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("rendering not a fixpoint: %q -> %q -> %q", src, rendered, again.String())
		}
		// Clone must be deep and faithful.
		if cl := path.Clone(); cl.String() != rendered {
			t.Fatalf("clone renders differently: %q vs %q", cl.String(), rendered)
		}
		// Evaluation and planning must not panic, and must agree.
		walk := path.Eval(doc)
		plan := CompilePlan(path)
		indexed := plan.Eval(doc, nil)
		if len(walk) != len(indexed) {
			t.Fatalf("plan (nil index) disagrees with walk: %d vs %d items", len(indexed), len(walk))
		}
		for i := range walk {
			if walk[i] != indexed[i] {
				t.Fatalf("plan (nil index) item %d differs", i)
			}
		}
	})
}

// FuzzLexer asserts the lexer never panics and terminates on arbitrary
// input (including invalid UTF-8 and unterminated literals).
func FuzzLexer(f *testing.F) {
	for _, seed := range []string{
		"/a/b[c='d']", "''", `"`, "1.2.3", "!=<=>=", "@*[]()", "a\x00b", "\xff\xfe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lex := &lexer{src: src}
		for i := 0; i <= len(src)+1; i++ {
			tok, err := lex.next()
			if err != nil || tok.kind == tokEOF {
				return
			}
		}
		t.Fatalf("lexer did not terminate on %q", src)
	})
}
