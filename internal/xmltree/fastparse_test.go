package xmltree

// The fast tokenizer's one obligation: any input it accepts must build
// exactly the tree encoding/xml would have built, under every option
// set. The fuzz target drives both parsers over arbitrary bytes; the
// table test additionally pins that representative data-centric
// documents actually take the fast path (a silent bail would be a
// performance regression the equivalence check alone cannot see).

import (
	"strings"
	"testing"
)

// sameTree is strict structural equality: kinds, names, values,
// attributes (order-sensitive) and children, with no normalization.
func sameTree(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value ||
		len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

var fastParseSeeds = []string{
	`<db><book id="1"><title>T</title><year>1995</year></book></db>`,
	"<?xml version=\"1.0\"?>\n<db><book/><book alt='x &amp; y'/></db>\n",
	`<a>one<!-- dropped -->two<![CDATA[<raw&>]]>three</a>`,
	`<a b="&quot;&lt;&gt;&apos;">x</a>`,
	`<a>  <b> spaced </b>  </a>`,
	`<a><b/><b></b><b  c = "1"  d='2' /></a>`,
	"<a>line1\r\nline2\rline3</a>",
	`<r>]] &gt; ok</r>`,
	`<a.b-c_d><_e/></a.b-c_d>`,
	`<a></a >`,
}

func fastOpts(keepWS, keepComments bool) ParseOptions {
	return ParseOptions{KeepWhitespaceText: keepWS, KeepComments: keepComments}
}

func TestParseFastEquivalenceAndCoverage(t *testing.T) {
	for _, src := range fastParseSeeds {
		for _, keepWS := range []bool{false, true} {
			for _, keepC := range []bool{false, true} {
				opts := fastOpts(keepWS, keepC)
				fast, ok := parseFast([]byte(src), opts)
				if !ok {
					t.Fatalf("parseFast bailed on representative input %q (opts %+v)", src, opts)
				}
				ref, err := Parse(strings.NewReader(src), opts)
				if err != nil {
					t.Fatalf("Parse rejected %q: %v", src, err)
				}
				if !sameTree(fast, ref) {
					t.Fatalf("tree mismatch for %q (opts %+v):\nfast: %s\nref:  %s",
						src, opts, SerializeString(fast), SerializeString(ref))
				}
			}
		}
	}
}

func TestParseFastBailsOutsideSubset(t *testing.T) {
	for _, src := range []string{
		`<a xmlns:n="urn:x"><n:b/></a>`,                   // namespaces
		`<a xmlns="urn:y"><b/></a>`,                       // default namespace
		`<a>&#65;</a>`,                                    // numeric char ref
		`<a><?pi body?></a>`,                              // processing instruction
		`<!DOCTYPE a><a/>`,                                // directive
		"<a>caf\xc3\xa9</a>",                              // non-ASCII
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, // foreign encoding
	} {
		if _, ok := parseFast([]byte(src), ParseOptions{}); ok {
			t.Errorf("parseFast accepted out-of-subset input %q", src)
		}
		// The ParseBytes fallback must agree with Parse exactly.
		ref, refErr := Parse(strings.NewReader(src), ParseOptions{})
		got, gotErr := ParseBytes([]byte(src), ParseOptions{})
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("ParseBytes/Parse error disagreement on %q: %v vs %v", src, gotErr, refErr)
		}
		if refErr == nil && !sameTree(got, ref) {
			t.Fatalf("ParseBytes fallback tree mismatch on %q", src)
		}
	}
}

// FuzzParseBytesEquivalence drives the fast and strict parsers over the
// same bytes: whenever the fast path claims success, the strict parser
// must succeed too and produce the identical tree. Run short in CI
// (go test -fuzz FuzzParseBytesEquivalence -fuzztime 10s).
func FuzzParseBytesEquivalence(f *testing.F) {
	for _, seed := range fastParseSeeds {
		f.Add([]byte(seed), false, false)
	}
	f.Add([]byte(`<a]]></a>`), true, true)
	f.Add([]byte(`<a b="]]>"/>`), false, true)
	f.Add([]byte(`<!--x--><a/><!--y-->`), true, true)
	f.Add([]byte("<a><![CDATA[ ]]></a>"), false, false)
	f.Add([]byte(`<a>&unknown;</a>`), false, false)
	f.Add([]byte(`<a/><b/>`), false, false)
	f.Add([]byte(`text outside`), false, false)
	f.Fuzz(func(t *testing.T, data []byte, keepWS, keepComments bool) {
		opts := fastOpts(keepWS, keepComments)
		fast, ok := parseFast(data, opts)
		if !ok {
			return // out of subset: ParseBytes defers to Parse wholesale
		}
		ref, err := Parse(strings.NewReader(string(data)), opts)
		if err != nil {
			t.Fatalf("parseFast accepted input the strict parser rejects: %q: %v", data, err)
		}
		if !sameTree(fast, ref) {
			t.Fatalf("tree mismatch on %q:\nfast: %s\nref:  %s",
				data, SerializeString(fast), SerializeString(ref))
		}
	})
}
