package xmltree

import (
	"runtime"
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0"?><a x="1"><b>hi</b><c/></a>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root := doc.Root()
	if root.Name != "a" {
		t.Fatalf("root = %q", root.Name)
	}
	if v, _ := root.Attr("x"); v != "1" {
		t.Errorf("attr x = %q", v)
	}
	if got := root.FirstChildNamed("b").Text(); got != "hi" {
		t.Errorf("b text = %q", got)
	}
	if root.FirstChildNamed("c") == nil {
		t.Errorf("self-closing element lost")
	}
}

func TestParseDropsWhitespaceByDefault(t *testing.T) {
	doc := MustParseString("<a>\n  <b>x</b>\n</a>")
	for _, c := range doc.Root().Children {
		if c.Kind == TextNode {
			t.Fatalf("whitespace text retained: %q", c.Value)
		}
	}
}

func TestParseKeepWhitespace(t *testing.T) {
	doc, err := Parse(strings.NewReader("<a>\n  <b>x</b>\n</a>"), ParseOptions{KeepWhitespaceText: true})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sawWS := false
	for _, c := range doc.Root().Children {
		if c.Kind == TextNode && isAllXMLSpace(c.Value) {
			sawWS = true
		}
	}
	if !sawWS {
		t.Errorf("KeepWhitespaceText did not keep whitespace")
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	src := `<a><!--note--><?target body?><b/></a>`
	doc, err := Parse(strings.NewReader(src), ParseOptions{KeepComments: true, KeepProcInsts: true})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var comment, pi *Node
	for _, c := range doc.Root().Children {
		switch c.Kind {
		case CommentNode:
			comment = c
		case ProcInstNode:
			pi = c
		}
	}
	if comment == nil || comment.Value != "note" {
		t.Errorf("comment not kept: %v", comment)
	}
	if pi == nil || pi.Name != "target" || pi.Value != "body" {
		t.Errorf("proc inst not kept: %v", pi)
	}

	// Default: both dropped.
	doc2 := MustParseString(src)
	for _, c := range doc2.Root().Children {
		if c.Kind == CommentNode || c.Kind == ProcInstNode {
			t.Errorf("default parse kept %v", c.Kind)
		}
	}
}

func TestParseEntityUnescaping(t *testing.T) {
	doc := MustParseString(`<a attr="x&amp;y">1 &lt; 2 &amp; 3 &gt; 2</a>`)
	if got := doc.Root().Text(); got != "1 < 2 & 3 > 2" {
		t.Errorf("text = %q", got)
	}
	if v, _ := doc.Root().Attr("attr"); v != "x&y" {
		t.Errorf("attr = %q", v)
	}
}

func TestParseMergesAdjacentText(t *testing.T) {
	// CDATA plus regular text arrive as separate CharData tokens.
	doc := MustParseString(`<a>one<![CDATA[two]]>three</a>`)
	if n := len(doc.Root().Children); n != 1 {
		t.Fatalf("children = %d, want 1 merged text node", n)
	}
	if got := doc.Root().Text(); got != "onetwothree" {
		t.Errorf("text = %q", got)
	}
}

// TestFragmentedTextLinear: text split into n fragments, by CDATA
// sections or by comments the parser drops, merges into one text node
// in work linear in n. It compares the bytes ParseBytes allocates at n
// and 4n fragments: linear work gives a ratio near 4, merging each
// fragment into the text so far gives one near 16. Entity references
// never split text and are the linear control.
func TestFragmentedTextLinear(t *testing.T) {
	const n = 5000
	for _, tc := range []struct{ frag, text string }{
		{"a<![CDATA[b]]>", "ab"},
		{"a<!---->", "a"},
		{"a&amp;", "a&"},
	} {
		allocated := func(k int) uint64 {
			src := []byte("<r>" + strings.Repeat(tc.frag, k) + "</r>")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			doc, err := ParseBytes(src, ParseOptions{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s x %d: %v", tc.frag, k, err)
			}
			if kids := doc.Root().Children; len(kids) != 1 || kids[0].Value != strings.Repeat(tc.text, k) {
				t.Fatalf("%s x %d: want one text node of %d bytes, got %d children", tc.frag, k, k*len(tc.text), len(kids))
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		small, large := allocated(n), allocated(4*n)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %d bytes at %d fragments, %d at %d: ratio %.1f", tc.frag, small, n, large, 4*n, ratio)
		if ratio >= 8 {
			t.Errorf("%s: parsing 4x the fragments allocates %.1fx the bytes, want under 8x", tc.frag, ratio)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unbalanced", "<a><b></a>"},
		{"truncated", "<a><b>"},
		{"empty", ""},
		{"only-comment", "<!-- nothing -->"},
		{"junk-after-root", "<a/><b/>"},
		{"text-at-top", "hello"},
		{"bad-attr", `<a x=1/>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.src); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParseNamespacePrefix(t *testing.T) {
	doc, err := ParseString(`<a xmlns:p="urn:x"><p:b>v</p:b></a>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	kids := doc.Root().ChildElements()
	if len(kids) != 1 {
		t.Fatalf("children = %d", len(kids))
	}
	// Prefixes resolve to their URL; we keep it as an opaque qualifier.
	if !strings.Contains(kids[0].Name, "b") {
		t.Errorf("namespaced name = %q", kids[0].Name)
	}
}

func TestMustParseStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParseString on bad input did not panic")
		}
	}()
	MustParseString("<oops>")
}

func TestParseDeepNesting(t *testing.T) {
	const depth = 200
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("leaf")
	for i := 0; i < depth; i++ {
		sb.WriteString("</n>")
	}
	doc, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("deep parse: %v", err)
	}
	if got := doc.Root().Text(); got != "leaf" {
		t.Errorf("deep text = %q", got)
	}
	st := CollectStats(doc)
	if st.Elements != depth {
		t.Errorf("elements = %d, want %d", st.Elements, depth)
	}
	if st.MaxDepth < depth {
		t.Errorf("max depth = %d, want >= %d", st.MaxDepth, depth)
	}
}
