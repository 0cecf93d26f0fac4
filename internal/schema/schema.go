// Package schema models the structural schema of data-centric XML
// documents: which elements exist, how they nest, what attributes they
// carry and what primitive type their values have.
//
// WmXML's scheme begins with "Specify a schema and validate the XML data
// according to the schema" (paper §2.2, step 1). The schema serves three
// masters here: validation (watermarking garbage protects nobody),
// identity-query construction (internal/identity walks the schema's
// element graph), and embedding-algorithm dispatch (the plug-in WA is
// chosen by the declared value type, paper figure 4).
package schema

import (
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wmxml/internal/xmltree"
)

// DataType is the primitive type of an element's or attribute's value.
// It selects the watermark embedding algorithm (numeric perturbation,
// binary LSB, text) and drives validation.
type DataType uint8

// The supported value types.
const (
	// TypeString is free text; no lexical constraint.
	TypeString DataType = iota
	// TypeInteger is a base-10 integer.
	TypeInteger
	// TypeDecimal is a decimal number (integer or fractional).
	TypeDecimal
	// TypeImage is a base64-encoded opaque binary payload. The paper's
	// system supports watermarking images embedded in XML; binary blobs
	// exercise the same plug-in channel.
	TypeImage
	// TypeNone marks non-leaf elements that carry no direct value.
	TypeNone
)

// String returns the lexical name used in schema files and reports.
func (t DataType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInteger:
		return "integer"
	case TypeDecimal:
		return "decimal"
	case TypeImage:
		return "image"
	case TypeNone:
		return "none"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ParseDataType converts a lexical type name back to a DataType.
func ParseDataType(s string) (DataType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "text":
		return TypeString, nil
	case "integer", "int":
		return TypeInteger, nil
	case "decimal", "number", "float":
		return TypeDecimal, nil
	case "image", "binary":
		return TypeImage, nil
	case "none", "":
		return TypeNone, nil
	default:
		return TypeString, fmt.Errorf("schema: unknown data type %q", s)
	}
}

// ValidValue reports whether s is a valid lexical value of the type.
func (t DataType) ValidValue(s string) bool {
	switch t {
	case TypeInteger:
		_, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		return err == nil
	case TypeDecimal:
		_, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		return err == nil
	case TypeImage:
		_, err := base64.StdEncoding.DecodeString(strings.TrimSpace(s))
		return err == nil
	default:
		return true
	}
}

// Unbounded is the MaxOccurs value meaning "no upper bound".
const Unbounded = -1

// ChildDecl declares that an element may contain children with a given
// tag, with occurrence bounds. Content models are unordered (bags): data-
// centric XML does not depend on sibling order, and the re-organization
// attacks WmXML defends against permute it freely.
type ChildDecl struct {
	Name      string
	MinOccurs int
	MaxOccurs int // Unbounded for no limit
}

// AttrDecl declares an attribute of an element.
type AttrDecl struct {
	Name     string
	Required bool
	Type     DataType
}

// ElementDecl declares one element type.
type ElementDecl struct {
	Name     string
	Attrs    []AttrDecl
	Children []ChildDecl
	// Type is the value type for leaf elements; TypeNone for elements
	// whose content is other elements.
	Type DataType
}

// Attr returns the declaration of the named attribute, if present.
func (e *ElementDecl) Attr(name string) (AttrDecl, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return AttrDecl{}, false
}

// Child returns the declaration of the named child, if present.
func (e *ElementDecl) Child(name string) (ChildDecl, bool) {
	for _, c := range e.Children {
		if c.Name == name {
			return c, true
		}
	}
	return ChildDecl{}, false
}

// IsLeaf reports whether the element holds a direct value (no element
// children declared).
func (e *ElementDecl) IsLeaf() bool { return len(e.Children) == 0 }

// Schema describes a document type: the root element and all element
// declarations. Element names are global (no two declarations share a
// name), which matches DTD semantics and keeps path reasoning simple.
type Schema struct {
	Name     string
	Root     string
	Elements map[string]*ElementDecl
}

// New creates an empty schema with the given name and root element.
func New(name, root string) *Schema {
	return &Schema{Name: name, Root: root, Elements: make(map[string]*ElementDecl)}
}

// Declare adds (or replaces) an element declaration and returns it for
// fluent construction.
func (s *Schema) Declare(name string) *ElementDecl {
	d := &ElementDecl{Name: name}
	s.Elements[name] = d
	return d
}

// Element returns the declaration for name, or nil.
func (s *Schema) Element(name string) *ElementDecl {
	return s.Elements[name]
}

// ElementNames returns all declared element names, sorted.
func (s *Schema) ElementNames() []string {
	names := make([]string, 0, len(s.Elements))
	for n := range s.Elements {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PathsTo returns every name path (e.g. "db/book/title") from the root to
// the named element, following child declarations. Cycles in the element
// graph are cut; paths are returned sorted for determinism.
func (s *Schema) PathsTo(name string) []string {
	var out []string
	var walk func(cur string, trail []string)
	walk = func(cur string, trail []string) {
		for _, t := range trail {
			if t == cur {
				return // cycle
			}
		}
		trail = append(trail, cur)
		if cur == name {
			out = append(out, strings.Join(trail, "/"))
			// An element nested under itself is cut by the cycle check, so
			// continuing deeper cannot re-reach name through cur.
		}
		decl := s.Elements[cur]
		if decl == nil {
			return
		}
		for _, c := range decl.Children {
			walk(c.Name, trail)
		}
	}
	walk(s.Root, nil)
	sort.Strings(out)
	return out
}

// Validate checks the document against the schema and returns all
// violations found (empty means valid).
func (s *Schema) Validate(doc *xmltree.Node) []Violation {
	var out []Violation
	root := doc.Root()
	if root == nil {
		return []Violation{{Node: doc, Reason: "document has no root element"}}
	}
	if root.Name != s.Root {
		out = append(out, Violation{Node: root,
			Reason: fmt.Sprintf("root element is %q, schema expects %q", root.Name, s.Root)})
		return out
	}
	s.validateElement(root, &out)
	return out
}

func (s *Schema) validateElement(n *xmltree.Node, out *[]Violation) {
	decl := s.Elements[n.Name]
	if decl == nil {
		*out = append(*out, Violation{Node: n, Reason: fmt.Sprintf("undeclared element %q", n.Name)})
		return
	}
	// Attributes.
	for _, a := range n.Attrs {
		ad, ok := decl.Attr(a.Name)
		if !ok {
			*out = append(*out, Violation{Node: n, Reason: fmt.Sprintf("undeclared attribute %q", a.Name)})
			continue
		}
		if !ad.Type.ValidValue(a.Value) {
			*out = append(*out, Violation{Node: n,
				Reason: fmt.Sprintf("attribute %q value %q is not a valid %s", a.Name, clip(a.Value), ad.Type)})
		}
	}
	for _, ad := range decl.Attrs {
		if ad.Required && !n.HasAttr(ad.Name) {
			*out = append(*out, Violation{Node: n, Reason: fmt.Sprintf("missing required attribute %q", ad.Name)})
		}
	}
	// Children.
	counts := make(map[string]int)
	for _, c := range n.ChildElements() {
		counts[c.Name]++
		if _, ok := decl.Child(c.Name); !ok {
			*out = append(*out, Violation{Node: c,
				Reason: fmt.Sprintf("element %q not allowed under %q", c.Name, n.Name)})
			continue
		}
		s.validateElement(c, out)
	}
	for _, cd := range decl.Children {
		got := counts[cd.Name]
		if got < cd.MinOccurs {
			*out = append(*out, Violation{Node: n,
				Reason: fmt.Sprintf("element %q requires at least %d %q children, found %d", n.Name, cd.MinOccurs, cd.Name, got)})
		}
		if cd.MaxOccurs != Unbounded && got > cd.MaxOccurs {
			*out = append(*out, Violation{Node: n,
				Reason: fmt.Sprintf("element %q allows at most %d %q children, found %d", n.Name, cd.MaxOccurs, cd.Name, got)})
		}
	}
	// Leaf value type.
	if decl.IsLeaf() && decl.Type != TypeNone && decl.Type != TypeString {
		if v := n.Text(); v != "" && !decl.Type.ValidValue(v) {
			*out = append(*out, Violation{Node: n,
				Reason: fmt.Sprintf("value %q is not a valid %s", clip(v), decl.Type)})
		}
	}
}

// Violation is one schema validation failure at Node. Its path is
// built only when the violation is rendered: Node.Path scans the
// siblings, so one per violation would be quadratic on a wide parent.
type Violation struct {
	Node   *xmltree.Node
	Reason string
}

// String renders the violation as "path: reason".
func (v Violation) String() string { return v.Node.Path() + ": " + v.Reason }

func clip(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
