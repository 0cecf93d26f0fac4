// Package xmltree provides a mutable document object model for XML.
//
// The standard library's encoding/xml package offers streaming tokens and
// struct (un)marshalling, but no mutable tree. WmXML needs to parse a
// document, address individual elements, perturb their values, restructure
// the tree, and serialize it back — so this package supplies a small DOM:
// parsing (a byte tokenizer for the ASCII data-centric subset, handing
// anything else to encoding/xml mid-document), serialization, deep
// cloning, mutation, traversal, canonicalization and structural
// comparison.
//
// The model is deliberately simple: a Node is a document, element, text,
// comment or processing instruction. Namespaces are carried as plain
// prefixed names; DTDs are not interpreted. That matches the fragment of
// XML exercised by the WmXML paper (data-centric documents such as
// publication databases and job listings).
package xmltree

import (
	"fmt"
	"strings"
)

// Kind discriminates the node types in the DOM.
type Kind uint8

// The node kinds.
const (
	// DocumentNode is the root of a parsed document. It has no name or
	// value; its children are the top-level misc items plus exactly one
	// element (the document element) for well-formed documents.
	DocumentNode Kind = iota
	// ElementNode is a tagged element with attributes and children.
	ElementNode
	// TextNode is character data. Value holds the unescaped text.
	TextNode
	// CommentNode is an XML comment. Value holds the comment body.
	CommentNode
	// ProcInstNode is a processing instruction. Name holds the target and
	// Value the instruction body.
	ProcInstNode
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "procinst"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element. Attribute order is preserved
// by the parser and serializer because some watermark channels (and some
// attacks) permute it.
type Attr struct {
	Name  string
	Value string
}

// Node is a node in the XML tree. The zero value is not useful; construct
// nodes with NewDocument, NewElement, NewText, NewComment or NewProcInst,
// or by parsing.
type Node struct {
	Kind     Kind
	Name     string // element tag or proc-inst target
	Value    string // text content, comment body or proc-inst body
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Kind: DocumentNode} }

// NewElement returns a detached element with the given tag name.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText returns a detached text node carrying the given character data.
func NewText(value string) *Node { return &Node{Kind: TextNode, Value: value} }

// NewComment returns a detached comment node.
func NewComment(value string) *Node { return &Node{Kind: CommentNode, Value: value} }

// NewProcInst returns a detached processing-instruction node.
func NewProcInst(target, value string) *Node {
	return &Node{Kind: ProcInstNode, Name: target, Value: value}
}

// Elem builds an element with the given name, attaching the provided
// children in order. It is a convenience for constructing test fixtures
// and synthetic documents.
func Elem(name string, children ...*Node) *Node {
	e := NewElement(name)
	for _, c := range children {
		e.AppendChild(c)
	}
	return e
}

// TextElem builds <name>value</name>, a leaf element holding one text node.
func TextElem(name, value string) *Node {
	return Elem(name, NewText(value))
}

// Root returns the document element of a document node, or nil if there is
// none. Called on a non-document node it returns the topmost ancestor's
// document element (or nil if the node is not attached to a document).
func (n *Node) Root() *Node {
	top := n
	for top.Parent != nil {
		top = top.Parent
	}
	if top.Kind != DocumentNode {
		if top.Kind == ElementNode {
			return top
		}
		return nil
	}
	for _, c := range top.Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// Document returns the owning document node, or nil if the node is not
// attached to one.
func (n *Node) Document() *Node {
	top := n
	for top.Parent != nil {
		top = top.Parent
	}
	if top.Kind == DocumentNode {
		return top
	}
	return nil
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the value of the named attribute, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports whether the named attribute is present.
func (n *Node) HasAttr(name string) bool {
	_, ok := n.Attr(name)
	return ok
}

// SetAttr sets the named attribute, replacing an existing value or
// appending a new attribute while preserving order.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr removes the named attribute and reports whether it existed.
func (n *Node) RemoveAttr(name string) bool {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// ChildElements returns the element children of n, in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// ChildElementsNamed returns the element children with the given tag name.
func (n *Node) ChildElementsNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildNamed returns the first element child with the given tag name,
// or nil.
func (n *Node) FirstChildNamed(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Text returns the concatenation of all descendant text nodes, in document
// order. For a text node it returns the node's own value.
func (n *Node) Text() string {
	switch n.Kind {
	case TextNode:
		return n.Value
	case CommentNode, ProcInstNode:
		return ""
	}
	// Fast paths for the dominant shapes — empty elements and elements
	// with a single content child — skip the builder entirely, which
	// keeps warm detection's per-item Value() reads allocation-free.
	switch len(n.Children) {
	case 0:
		return ""
	case 1:
		switch c := n.Children[0]; c.Kind {
		case TextNode:
			return c.Value
		case ElementNode:
			return c.Text()
		default:
			return ""
		}
	}
	var sb strings.Builder
	n.appendText(&sb)
	return sb.String()
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			sb.WriteString(c.Value)
		case ElementNode:
			c.appendText(sb)
		}
	}
}

// SetText replaces the textual content of an element with a single text
// node holding value. Non-text children are preserved, in their original
// order, after the text.
func (n *Node) SetText(value string) {
	if n.Kind != ElementNode {
		if n.Kind == TextNode {
			n.Value = value
		}
		return
	}
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind != TextNode {
			kept = append(kept, c)
		} else {
			c.Parent = nil
		}
	}
	n.Children = kept
	t := NewText(value)
	t.Parent = n
	n.Children = append([]*Node{t}, n.Children...)
}

// Index returns n's position among its parent's children, or -1 when
// detached.
func (n *Node) Index() int {
	if n.Parent == nil {
		return -1
	}
	for i, c := range n.Parent.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// ElementIndex returns n's position among its parent's *element* children
// with the same tag name (0-based), or -1 when detached or not an element.
// This is the ordinal used in positional paths like /db/book[2].
func (n *Node) ElementIndex() int {
	if n.Parent == nil || n.Kind != ElementNode {
		return -1
	}
	idx := 0
	for _, c := range n.Parent.Children {
		if c == n {
			return idx
		}
		if c.Kind == ElementNode && c.Name == n.Name {
			idx++
		}
	}
	return -1
}

// Path returns the absolute positional path of the node, e.g.
// /db/book[2]/title[0]. It is stable only for a fixed tree shape — which
// is exactly why WmXML does not use it as a watermark identifier — but it
// is invaluable for diagnostics and for the positional baseline.
func (n *Node) Path() string {
	if n.Kind == DocumentNode {
		return "/"
	}
	var parts []string
	for cur := n; cur != nil && cur.Kind != DocumentNode; cur = cur.Parent {
		switch cur.Kind {
		case ElementNode:
			parts = append(parts, fmt.Sprintf("%s[%d]", cur.Name, cur.ElementIndexOrZero()))
		case TextNode:
			parts = append(parts, "text()")
		case CommentNode:
			parts = append(parts, "comment()")
		case ProcInstNode:
			parts = append(parts, "processing-instruction()")
		}
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

// ElementIndexOrZero is ElementIndex but returns 0 for detached roots so
// that Path never renders a negative ordinal.
func (n *Node) ElementIndexOrZero() int {
	if i := n.ElementIndex(); i >= 0 {
		return i
	}
	return 0
}

// Depth returns the number of ancestors between n and its topmost
// ancestor (the document node contributes 0).
func (n *Node) Depth() int {
	d := 0
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind != DocumentNode {
			d++
		}
	}
	return d
}

// IsAncestorOf reports whether n is a proper ancestor of other.
func (n *Node) IsAncestorOf(other *Node) bool {
	for cur := other.Parent; cur != nil; cur = cur.Parent {
		if cur == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// detached (its Parent is nil).
func (n *Node) Clone() *Node {
	cp := &Node{Kind: n.Kind, Name: n.Name, Value: n.Value}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, 0, len(n.Children))
		for _, c := range n.Children {
			cc := c.Clone()
			cc.Parent = cp
			cp.Children = append(cp.Children, cc)
		}
	}
	return cp
}

// String renders the subtree as XML without indentation; primarily for
// debugging and error messages.
func (n *Node) String() string {
	var sb strings.Builder
	if err := Serialize(&sb, n, SerializeOptions{}); err != nil {
		return fmt.Sprintf("<!-- serialize error: %v -->", err)
	}
	return sb.String()
}
