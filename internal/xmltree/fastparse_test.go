package xmltree

// The byte tokenizer's one obligation: every entry point must build
// exactly the tree, and fail with exactly the error, that encoding/xml
// handed the input at byte 0 would, under every option set and however
// the reader splits the input. The fuzz targets drive both over
// arbitrary bytes; the table tests additionally pin that representative
// data-centric documents never hand off (a silent hand-off would be a
// performance regression the equivalence checks alone cannot see) and
// that out-of-subset inputs do.

import (
	"bytes"
	"encoding/xml"
	"io"
	"slices"
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

// scanBytes runs the byte tokenizer over data the way ParseBytes does
// and reports whether it handed off to encoding/xml.
func scanBytes(data []byte, opts ParseOptions) (doc *Node, handedOff bool, err error) {
	s := &scanner{b: newTokenBuilder(opts, true), buf: data, srcErr: io.EOF}
	doc, err = s.parse()
	return doc, s.dec != nil, err
}

// parseReference is the encoding/xml path handed the input at byte 0:
// the strict decoder's tokens folded by the same builder, with no byte
// tokenizer in front. Every entry point must match it exactly.
func parseReference(data []byte, opts ParseOptions) (*Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	dec.Strict = true
	b := newTokenBuilder(opts, false)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return b.finish()
		}
		if err != nil {
			return nil, parseError(err, nil)
		}
		if err := b.token(tok); err != nil {
			return nil, err
		}
	}
}

func TestParseFastEquivalenceAndCoverage(t *testing.T) {
	for _, src := range fastParseSeeds {
		for _, keepWS := range []bool{false, true} {
			for _, keepC := range []bool{false, true} {
				opts := fastOpts(keepWS, keepC)
				fast, handedOff, err := scanBytes([]byte(src), opts)
				if handedOff || err != nil {
					t.Fatalf("byte tokenizer handed off representative input %q (opts %+v): %v", src, opts, err)
				}
				ref, err := parseReference([]byte(src), opts)
				if err != nil {
					t.Fatalf("encoding/xml rejected %q: %v", src, err)
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
		`<?xml version="1.1"?><a/>`,                       // unsupported version
		`<?xml version="0"?><a/>`,                         // unsupported version
	} {
		if _, handedOff, _ := scanBytes([]byte(src), ParseOptions{}); !handedOff {
			t.Errorf("byte tokenizer kept out-of-subset input %q", src)
		}
		// Every entry point must agree with encoding/xml exactly.
		ref, refErr := parseReference([]byte(src), ParseOptions{})
		for name, parse := range map[string]func() (*Node, error){
			"ParseBytes": func() (*Node, error) { return ParseBytes([]byte(src), ParseOptions{}) },
			"Parse":      func() (*Node, error) { return ParseString(src) },
		} {
			got, gotErr := parse()
			if errText(gotErr) != errText(refErr) {
				t.Fatalf("%s/encoding/xml error disagreement on %q: %v vs %v", name, src, gotErr, refErr)
			}
			if refErr == nil && !sameTree(got, ref) {
				t.Fatalf("%s tree mismatch on %q", name, src)
			}
		}
	}
}

// FuzzParseBytesEquivalence drives the byte tokenizer and encoding/xml
// over the same bytes: whenever the tokenizer parses the whole input
// without handing off, encoding/xml must succeed too and produce the
// identical tree. Run short in CI
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
	f.Add([]byte(`<?xml version="1.1"?><a/>`), false, false)
	f.Add([]byte(`<?xml version="0"?><a/>`), false, false)
	f.Fuzz(func(t *testing.T, data []byte, keepWS, keepComments bool) {
		opts := fastOpts(keepWS, keepComments)
		fast, handedOff, err := scanBytes(data, opts)
		if handedOff || err != nil {
			return // FuzzParseSplitEquivalence checks hand-offs and errors
		}
		ref, err := parseReference(data, opts)
		if err != nil {
			t.Fatalf("byte tokenizer accepted input encoding/xml rejects: %q: %v", data, err)
		}
		if !sameTree(fast, ref) {
			t.Fatalf("tree mismatch on %q:\nfast: %s\nref:  %s",
				data, SerializeString(fast), SerializeString(ref))
		}
	})
}

// splitReader hands data out in reads of 1 to max bytes, the sizes
// drawn from a small LCG, so window boundaries land anywhere.
type splitReader struct {
	data  []byte
	state uint32
	max   int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.state = r.state*1664525 + 1013904223
	n := min(1+int(r.state>>16)%r.max, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// streamTree drains a StreamParser and reassembles the document from
// its events.
func streamTree(sp *StreamParser) (*Node, error) {
	doc := NewDocument()
	var root *Node
	for {
		ev, err := sp.Next()
		if err == io.EOF {
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case EventDocItem:
			doc.AppendChild(ev.Node)
		case EventRootOpen:
			root = &Node{Kind: ElementNode, Name: ev.Node.Name, Attrs: slices.Clone(ev.Node.Attrs)}
			doc.AppendChild(root)
		case EventItem:
			root.AppendChild(ev.Node)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzParseSplitEquivalence holds every entry point to the encoding/xml
// path handed the input at byte 0: ParseBytes, and Parse and a drained
// StreamParser over reads of 1 to N bytes, must give the same tree and
// the same error text under any options — whether the byte tokenizer
// parses the input alone, hands off mid-document, or hands off at once.
// Run short in CI (go test -fuzz FuzzParseSplitEquivalence -fuzztime 15s).
func FuzzParseSplitEquivalence(f *testing.F) {
	for _, seed := range fastParseSeeds {
		f.Add([]byte(seed), uint8(0), uint8(0))
		f.Add([]byte(seed), uint8(3), uint8(255))
	}
	for _, seed := range []string{
		"<db>\n <r>a</r>\n <r>caf\xc3\xa9</r>\n <r>b</r>\n</db>",             // non-ASCII mid-document
		"<db><r>x</r>\n<r xmlns:n=\"urn:x\"><n:v n:a=\"1\">y</n:v></r></db>", // namespaces after the first record
		"<db><r>1</r><r>&#65;&amp;</r></db>",                                 // numeric reference
		"<db>\n<r>\n<v>1</v>\n</r>\n<r><v>2</w></r></db>",                    // mismatched end tag, line 5
		"<db>\n<r>\n<v>12", // truncated inside an element
		"<db><r/><?pi body?><!-- c --></db><!-- tail -->",               // PI and comments
		`<?xml version="1.1"?><a/>`,                                     // unsupported version
		`<?xml version="0"?><a/>`,                                       // unsupported version
		"<?xml version='1.0' encoding='utf-8' standalone='yes'?>\n<a/>", // plain declaration
		"<a><b><c><d/></c></b></a>",                                     // depth cap
		"<a b='1'c=\"2\"/>",                                             // attributes run together
		"<db><r>a]]>b</r></db>",                                         // unescaped ]]>
		"<db>\r\n<r>a\r\nb\rc</r></db>",                                 // CR normalization
		"<a/><!DOCTYPE x><b/>",                                          // directive after the root
	} {
		f.Add([]byte(seed), uint8(0), uint8(0))
		f.Add([]byte(seed), uint8(0x47), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, flags, split uint8) {
		opts := ParseOptions{
			KeepWhitespaceText: flags&1 != 0,
			KeepComments:       flags&2 != 0,
			KeepProcInsts:      flags&4 != 0,
			MaxDepth:           int(flags >> 5), // 0 is the default cap
		}
		ref, refErr := parseReference(data, opts)
		check := func(name string, got *Node, err error) {
			t.Helper()
			if errText(err) != errText(refErr) {
				t.Fatalf("%s on %q (opts %+v, split %d):\n got error %v\nwant error %v", name, data, opts, split, err, refErr)
			}
			if refErr == nil && !sameTree(got, ref) {
				t.Fatalf("%s tree mismatch on %q (opts %+v, split %d):\n got %s\nwant %s",
					name, data, opts, split, SerializeString(got), SerializeString(ref))
			}
		}
		newReader := func() io.Reader {
			return &splitReader{data: data, state: uint32(split), max: 1 + int(split)}
		}
		doc, err := ParseBytes(data, opts)
		check("ParseBytes", doc, err)
		doc, err = Parse(newReader(), opts)
		check("Parse", doc, err)
		doc, err = streamTree(NewStreamParser(newReader(), opts))
		check("StreamParser", doc, err)
	})
}
