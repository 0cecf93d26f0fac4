package xpath

import (
	"math"
	"strconv"
	"strings"

	"wmxml/internal/xmltree"
)

// Item is a query result: either a node (element, text, document) or an
// attribute of an element. Items are addressable — SetValue writes the
// watermarked value back into the tree — which is what makes queries
// usable as watermark identifiers.
type Item struct {
	// Node is the result node, or the owning element when Attr is set.
	Node *xmltree.Node
	// Attr is the attribute name for attribute items, "" otherwise.
	Attr string
}

// IsAttr reports whether the item addresses an attribute.
func (it Item) IsAttr() bool { return it.Attr != "" }

// Value returns the string value of the item: the attribute value,
// the text of an element, or the character data of a text node.
func (it Item) Value() string {
	if it.Node == nil {
		return ""
	}
	if it.Attr != "" {
		v, _ := it.Node.Attr(it.Attr)
		return v
	}
	return it.Node.Text()
}

// SetValue writes a new string value: the attribute value for attribute
// items, the text content for elements, the character data for text
// nodes.
func (it Item) SetValue(v string) {
	if it.Node == nil {
		return
	}
	if it.Attr != "" {
		it.Node.SetAttr(it.Attr, v)
		return
	}
	it.Node.SetText(v)
}

// Name returns the element tag, attribute name, or "" for other nodes.
func (it Item) Name() string {
	if it.Attr != "" {
		return it.Attr
	}
	if it.Node != nil && it.Node.Kind == xmltree.ElementNode {
		return it.Node.Name
	}
	return ""
}

// Eval evaluates the path against root (usually a document node) and
// returns the matching items in document order without duplicates. The
// result is the caller's: it runs on a Scratch of its own.
func (p Path) Eval(root *xmltree.Node) []Item {
	var sc Scratch
	return sc.walk(p, root)
}

// evalCtx is the dynamic context of predicate evaluation.
type evalCtx struct {
	item     Item
	position int
	size     int
}

// evalExpr evaluates a predicate expression to one of: bool, float64,
// string, or []Item (node-set).
func evalExpr(e Expr, ec evalCtx) any {
	switch x := e.(type) {
	case Number:
		return x.Value
	case String:
		return x.Value
	case PathExpr:
		return evalRelative(x.Path, ec)
	case Binary:
		return evalBinary(x, ec)
	case Call:
		return evalCall(x, ec)
	default:
		return false
	}
}

// evalRelative evaluates a predicate's sub-path. It runs while the
// enclosing step's buffers are in use, so it takes a Scratch of its own.
func evalRelative(p Path, ec evalCtx) []Item {
	if p.Absolute {
		if ec.item.Node == nil {
			return nil
		}
		return p.Eval(ec.item.Node)
	}
	var sc Scratch
	return sc.from(ec.item, p.Steps)
}

func evalBinary(b Binary, ec evalCtx) any {
	switch b.Op {
	case "and":
		return truth(evalExpr(b.L, ec)) && truth(evalExpr(b.R, ec))
	case "or":
		return truth(evalExpr(b.L, ec)) || truth(evalExpr(b.R, ec))
	}
	l := evalExpr(b.L, ec)
	r := evalExpr(b.R, ec)
	return compare(b.Op, l, r)
}

// compare implements XPath's existential comparison semantics: when one
// side is a node-set, the comparison holds if it holds for any node in the
// set.
func compare(op string, l, r any) bool {
	if ls, ok := l.([]Item); ok {
		for _, it := range ls {
			if compare(op, it.Value(), r) {
				return true
			}
		}
		return false
	}
	if rs, ok := r.([]Item); ok {
		for _, it := range rs {
			if compare(op, l, it.Value()) {
				return true
			}
		}
		return false
	}
	switch op {
	case "=", "!=":
		eq := equalValues(l, r)
		if op == "=" {
			return eq
		}
		return !eq
	default:
		lf, lok := toNumber(l)
		rf, rok := toNumber(r)
		if !lok || !rok {
			return false
		}
		switch op {
		case "<":
			return lf < rf
		case "<=":
			return lf <= rf
		case ">":
			return lf > rf
		case ">=":
			return lf >= rf
		}
	}
	return false
}

func equalValues(l, r any) bool {
	// If either side is numeric, compare numerically when both convert.
	_, lIsNum := l.(float64)
	_, rIsNum := r.(float64)
	if lIsNum || rIsNum {
		lf, lok := toNumber(l)
		rf, rok := toNumber(r)
		if lok && rok {
			return lf == rf
		}
		return false
	}
	lb, lIsBool := l.(bool)
	rb, rIsBool := r.(bool)
	if lIsBool || rIsBool {
		return truth(l) == truth(r) && (lIsBool || rIsBool) && (lb == truth(r) || rb == truth(l))
	}
	return toString(l) == toString(r)
}

func evalCall(c Call, ec evalCtx) any {
	switch c.Name {
	case "position":
		return float64(ec.position)
	case "last":
		return float64(ec.size)
	case "count":
		set, _ := evalExpr(c.Args[0], ec).([]Item)
		return float64(len(set))
	case "contains":
		a := toString(evalExpr(c.Args[0], ec))
		b := toString(evalExpr(c.Args[1], ec))
		return strings.Contains(a, b)
	case "starts-with":
		a := toString(evalExpr(c.Args[0], ec))
		b := toString(evalExpr(c.Args[1], ec))
		return strings.HasPrefix(a, b)
	case "not":
		return !truth(evalExpr(c.Args[0], ec))
	case "string-length":
		if len(c.Args) == 0 {
			return float64(len(ec.item.Value()))
		}
		return float64(len(toString(evalExpr(c.Args[0], ec))))
	case "number":
		if len(c.Args) == 0 {
			f, _ := toNumber(ec.item.Value())
			return f
		}
		f, ok := toNumber(evalExpr(c.Args[0], ec))
		if !ok {
			return math.NaN()
		}
		return f
	case "name":
		if len(c.Args) == 0 {
			return ec.item.Name()
		}
		set, _ := evalExpr(c.Args[0], ec).([]Item)
		if len(set) == 0 {
			return ""
		}
		return set[0].Name()
	case "normalize-space":
		var s string
		if len(c.Args) == 0 {
			s = ec.item.Value()
		} else {
			s = toString(evalExpr(c.Args[0], ec))
		}
		return strings.Join(strings.Fields(s), " ")
	case "string":
		if len(c.Args) == 0 {
			return ec.item.Value()
		}
		return toString(evalExpr(c.Args[0], ec))
	case "substring":
		s := toString(evalExpr(c.Args[0], ec))
		start, ok := toNumber(evalExpr(c.Args[1], ec))
		if !ok {
			return ""
		}
		// XPath positions are 1-based; round per spec.
		from := int(math.Round(start)) - 1
		to := len(s)
		if len(c.Args) == 3 {
			length, ok := toNumber(evalExpr(c.Args[2], ec))
			if !ok {
				return ""
			}
			to = from + int(math.Round(length))
		}
		if from < 0 {
			from = 0
		}
		if to > len(s) {
			to = len(s)
		}
		if from >= len(s) || to <= from {
			return ""
		}
		return s[from:to]
	case "substring-before":
		s := toString(evalExpr(c.Args[0], ec))
		sep := toString(evalExpr(c.Args[1], ec))
		if i := strings.Index(s, sep); i >= 0 {
			return s[:i]
		}
		return ""
	case "substring-after":
		s := toString(evalExpr(c.Args[0], ec))
		sep := toString(evalExpr(c.Args[1], ec))
		if i := strings.Index(s, sep); i >= 0 {
			return s[i+len(sep):]
		}
		return ""
	case "concat":
		var sb strings.Builder
		for _, a := range c.Args {
			sb.WriteString(toString(evalExpr(a, ec)))
		}
		return sb.String()
	case "translate":
		s := toString(evalExpr(c.Args[0], ec))
		from := []rune(toString(evalExpr(c.Args[1], ec)))
		to := []rune(toString(evalExpr(c.Args[2], ec)))
		var sb strings.Builder
		for _, r := range s {
			replaced := false
			for i, f := range from {
				if r == f {
					if i < len(to) {
						sb.WriteRune(to[i])
					}
					replaced = true
					break
				}
			}
			if !replaced {
				sb.WriteRune(r)
			}
		}
		return sb.String()
	case "boolean":
		return truth(evalExpr(c.Args[0], ec))
	case "true":
		return true
	case "false":
		return false
	case "floor":
		f, ok := toNumber(evalExpr(c.Args[0], ec))
		if !ok {
			return math.NaN()
		}
		return math.Floor(f)
	case "ceiling":
		f, ok := toNumber(evalExpr(c.Args[0], ec))
		if !ok {
			return math.NaN()
		}
		return math.Ceil(f)
	case "round":
		f, ok := toNumber(evalExpr(c.Args[0], ec))
		if !ok {
			return math.NaN()
		}
		return math.Round(f)
	case "sum":
		set, _ := evalExpr(c.Args[0], ec).([]Item)
		total := 0.0
		for _, it := range set {
			f, ok := toNumber(it.Value())
			if !ok {
				return math.NaN()
			}
			total += f
		}
		return total
	default:
		return false
	}
}

// truth converts an evaluation result to a boolean per XPath rules.
func truth(v any) bool {
	switch x := v.(type) {
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	case []Item:
		return len(x) > 0
	default:
		return false
	}
}

// toString converts an evaluation result to a string per XPath rules
// (node-sets convert via their first node).
func toString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		if x == math.Trunc(x) && !math.IsInf(x, 0) {
			return strconv.FormatFloat(x, 'f', -1, 64)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case []Item:
		if len(x) == 0 {
			return ""
		}
		return x[0].Value()
	default:
		return ""
	}
}

// toNumber converts an evaluation result to a float64, reporting success.
func toNumber(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	case []Item:
		if len(x) == 0 {
			return 0, false
		}
		return toNumber(x[0].Value())
	default:
		return 0, false
	}
}
