package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ParseOptions controls document parsing.
type ParseOptions struct {
	// KeepWhitespaceText retains text nodes that consist solely of XML
	// whitespace. By default such nodes (typically indentation) are
	// dropped, which is what the data-centric workloads in this repository
	// expect.
	KeepWhitespaceText bool
	// KeepComments retains comment nodes. Comments are dropped by default:
	// they carry no watermark bandwidth and attackers strip them for free.
	KeepComments bool
	// KeepProcInsts retains processing instructions (except the XML
	// declaration, which is always dropped and re-synthesized on output).
	KeepProcInsts bool
	// MaxDepth caps element nesting; deeper documents fail to parse.
	// 0 means DefaultMaxDepth. Later passes over the tree (serialization,
	// cloning, traversal) recurse once per level, so the cap shields them
	// from adversarially deep input.
	MaxDepth int
}

// DefaultMaxDepth is the element-nesting cap applied when
// ParseOptions.MaxDepth is zero. Data-centric documents are a handful of
// levels deep; ten thousand is far beyond any legitimate workload while
// keeping recursive tree passes comfortably inside the stack.
const DefaultMaxDepth = 10000

// tokenBuilder folds tokens into the DOM. It is the single place the
// parsing semantics live — whitespace dropping, adjacent-text merging,
// namespace prefix restoration, depth capping, well-formedness checks.
// The byte tokenizer (fastparse.go) and its encoding/xml fallback both
// feed it, behind Parse, ParseBytes and StreamParser alike, so the
// entry points can never diverge.
type tokenBuilder struct {
	opts     ParseOptions
	maxDepth int
	doc      *Node
	cur      *Node
	depth    int
	sawElem  bool
	// slab hands out nodes in bulk; nextSlab is the size of the next
	// one, 0 when nodes are allocated one at a time (see node).
	slab     []Node
	nextSlab int
}

// Node slabs start small and double up to maxSlab, so a short document
// or an early hand-off wastes little.
const (
	firstSlab = 64
	maxSlab   = 1024
)

// newTokenBuilder starts an empty document. Whole-document parses pass
// slabs; the stream parser must not (see node).
func newTokenBuilder(opts ParseOptions, slabs bool) *tokenBuilder {
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	doc := NewDocument()
	b := &tokenBuilder{opts: opts, maxDepth: maxDepth, doc: doc, cur: doc}
	if slabs {
		b.nextSlab = firstSlab
	}
	return b
}

// node returns a zeroed node. A whole-document parse keeps every node
// anyway, so it takes them from slabs. The stream parser must not: a
// slab shared by two chunks keeps the older chunk reachable from the
// newer, and through the older one's Parent links every chunk before.
func (b *tokenBuilder) node() *Node {
	if len(b.slab) == 0 {
		if b.nextSlab == 0 {
			return new(Node)
		}
		b.slab = make([]Node, b.nextSlab)
		b.nextSlab = min(2*b.nextSlab, maxSlab)
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
	return n
}

// attach appends a fresh node to the cursor's children.
func (b *tokenBuilder) attach(n *Node) {
	n.Parent = b.cur
	b.cur.Children = append(b.cur.Children, n)
}

// open attaches element el under the cursor, enforcing the depth cap.
func (b *tokenBuilder) open(el *Node) error {
	b.depth++
	if b.depth > b.maxDepth {
		return fmt.Errorf("xmltree: parse: element nesting exceeds %d", b.maxDepth)
	}
	b.attach(el)
	return nil
}

// enter moves the cursor into el, just attached by open, enforcing the
// single-root rule.
func (b *tokenBuilder) enter(el *Node) error {
	b.cur = el
	if el.Parent == b.doc {
		if b.sawElem {
			return fmt.Errorf("xmltree: parse: multiple document elements")
		}
		b.sawElem = true
	}
	return nil
}

// end closes the element under the cursor.
func (b *tokenBuilder) end() {
	b.depth--
	b.cur = b.cur.Parent
}

// text folds one character-data token. The whitespace drop applies per
// token, before merging with a preceding text sibling, so parsing
// always yields normalized trees.
func (b *tokenBuilder) text(data []byte) error {
	if !b.opts.KeepWhitespaceText && isAllXMLSpace(data) {
		return nil
	}
	if b.cur == b.doc {
		// Character data outside the document element is only legal if
		// it is whitespace.
		if isAllXMLSpace(data) {
			return nil
		}
		return fmt.Errorf("xmltree: parse: character data outside document element")
	}
	if k := len(b.cur.Children); k > 0 && b.cur.Children[k-1].Kind == TextNode {
		b.cur.Children[k-1].Value += string(data)
		return nil
	}
	t := b.node()
	t.Kind = TextNode
	t.Value = string(data)
	b.attach(t)
	return nil
}

// comment folds one comment token.
func (b *tokenBuilder) comment(data []byte) {
	if b.opts.KeepComments {
		c := b.node()
		c.Kind = CommentNode
		c.Value = string(data)
		b.attach(c)
	}
}

// token folds one decoder token into the tree.
func (b *tokenBuilder) token(tok xml.Token) error {
	switch t := tok.(type) {
	case xml.StartElement:
		el := b.node()
		el.Kind = ElementNode
		if err := b.open(el); err != nil {
			return err
		}
		for _, a := range t.Attr {
			// Namespace declarations are preserved verbatim as
			// attributes so that serialization round-trips.
			el.Attrs = append(el.Attrs, Attr{Name: Intern(flatName(a.Name)), Value: a.Value})
		}
		// Resolve namespaced names once the element's own xmlns
		// declarations and its ancestors' are reachable. The decoder
		// hands us resolved URLs; serializing those verbatim
		// ("urn:x:b") would not reparse, so map each URL back to its
		// in-scope prefix.
		el.Name = Intern(resolveName(el, t.Name, false))
		renamed := false
		for i, a := range t.Attr {
			if a.Name.Space != "" && a.Name.Space != "xmlns" {
				el.Attrs[i].Name = Intern(resolveName(el, a.Name, true))
				renamed = true
			}
		}
		if renamed {
			// Distinct raw attributes can resolve to one expanded
			// name (two prefixes bound to the same URL); XML forbids
			// that, so reject rather than serialize duplicates.
			for i := range el.Attrs {
				for j := 0; j < i; j++ {
					if el.Attrs[i].Name == el.Attrs[j].Name {
						return fmt.Errorf("xmltree: parse: duplicate attribute %q on %q", el.Attrs[i].Name, el.Name)
					}
				}
			}
		}
		return b.enter(el)
	case xml.EndElement:
		if b.cur == b.doc {
			return fmt.Errorf("xmltree: parse: unbalanced end element %q", flatName(t.Name))
		}
		b.end()
	case xml.CharData:
		return b.text(t)
	case xml.Comment:
		b.comment(t)
	case xml.ProcInst:
		if t.Target == "xml" {
			return nil
		}
		if b.opts.KeepProcInsts {
			pi := b.node()
			pi.Kind = ProcInstNode
			pi.Name = t.Target
			pi.Value = string(t.Inst)
			b.attach(pi)
		}
	case xml.Directive:
		// DTD internal subsets and the like are not modelled.
	}
	return nil
}

// finish validates end-of-input state and returns the document.
func (b *tokenBuilder) finish() (*Node, error) {
	if b.cur != b.doc {
		return nil, fmt.Errorf("xmltree: parse: unexpected EOF inside element %q", b.cur.Name)
	}
	if !b.sawElem {
		return nil, fmt.Errorf("xmltree: parse: no document element")
	}
	return b.doc, nil
}

// errTrackReader records the first error its underlying reader returns,
// so a parse failure can be traced back to the I/O fault that caused it
// even if the XML decoder re-describes it as a syntax problem. Streaming
// makes truncated and failing inputs routine; callers must be able to
// tell "the disk/socket failed" from "the document is malformed".
type errTrackReader struct {
	r   io.Reader
	err error
}

func (t *errTrackReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF && t.err == nil {
		t.err = err
	}
	return n, err
}

// parseError folds a decoder error with any recorded reader error: when
// the reader itself failed, that failure is the root cause and must be
// in the returned chain (errors.Is-reachable) whatever the decoder made
// of the resulting truncation.
func parseError(decErr error, tr *errTrackReader) error {
	if tr != nil && tr.err != nil && !errors.Is(decErr, tr.err) {
		return fmt.Errorf("xmltree: parse: read: %w", tr.err)
	}
	return fmt.Errorf("xmltree: parse: %w", decErr)
}

// newDecoder builds the strict encoding/xml tokenizer the byte
// tokenizer hands exotic input to.
func newDecoder(r io.Reader) *xml.Decoder {
	dec := xml.NewDecoder(r)
	// The documents this system handles are data files, not hypertext;
	// strictness catches corrupt attack output early.
	dec.Strict = true
	return dec
}

// Parse reads an XML document from r and builds its DOM. The returned node
// has Kind == DocumentNode.
func Parse(r io.Reader, opts ParseOptions) (*Node, error) {
	return newScanner(r, newTokenBuilder(opts, true)).parse()
}

// ParseString is Parse over a string with default options.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s), ParseOptions{})
}

// MustParseString parses s and panics on error. For tests and fixtures.
func MustParseString(s string) *Node {
	doc, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return doc
}

// flatName renders an xml.Name as prefix-less local or space:local. Go's
// tokenizer resolves prefixes to namespace URLs; for the data-centric
// documents handled here we key on the local name and keep any namespace
// as an opaque qualifier.
func flatName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// resolveName maps a decoder-resolved name back to serializable form:
// "prefix:local" via the innermost in-scope prefix bound to the URL,
// bare local when the default namespace covers an element, and the
// opaque "space:local" fallback otherwise (e.g. a prefix used without a
// declaration, which Go's decoder passes through as the space).
func resolveName(el *Node, n xml.Name, isAttr bool) string {
	if n.Space == "" {
		return n.Local
	}
	if p := nsPrefix(el, n.Space); p != "" {
		return p + ":" + n.Local
	}
	// The default namespace applies to elements only, never attributes.
	if !isAttr && nsDefaultIs(el, n.Space) {
		return n.Local
	}
	return flatName(n)
}

// nsPrefix finds the innermost in-scope prefix bound to url by scanning
// the xmlns declarations on el and its ancestors (the tree above el is
// already built when the parser calls this). A prefix re-bound deeper
// shadows outer bindings of the same prefix.
func nsPrefix(el *Node, url string) string {
	var shadowed map[string]bool
	for n := el; n != nil; n = n.Parent {
		for _, a := range n.Attrs {
			p, ok := strings.CutPrefix(a.Name, "xmlns:")
			if !ok || shadowed[p] {
				continue
			}
			if a.Value == url {
				return p
			}
			if shadowed == nil {
				shadowed = make(map[string]bool)
			}
			shadowed[p] = true
		}
	}
	return ""
}

// nsDefaultIs reports whether the innermost default-namespace
// declaration in scope at el binds url.
func nsDefaultIs(el *Node, url string) bool {
	for n := el; n != nil; n = n.Parent {
		for _, a := range n.Attrs {
			if a.Name == "xmlns" {
				return a.Value == url
			}
		}
	}
	return false
}
