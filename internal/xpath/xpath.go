package xpath

import (
	"sync"

	"wmxml/internal/xmltree"
)

// Query is a compiled XPath expression. A Query is immutable and safe for
// concurrent use.
type Query struct {
	path Path
	src  string

	planOnce sync.Once
	plan     *Plan
}

// Compile parses src into a Query.
func Compile(src string) (*Query, error) {
	path, err := ParsePath(src)
	if err != nil {
		return nil, err
	}
	return &Query{path: path, src: src}, nil
}

// MustCompile is Compile but panics on error; for fixed expressions.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// FromPath wraps an already-built AST (e.g. the output of the query
// rewriter) as a Query.
func FromPath(p Path) *Query {
	return &Query{path: p.Clone(), src: p.String()}
}

// String returns the query source in XPath syntax. For compiled queries
// this is the original source; for rewritten queries it is the rendering
// of the transformed AST.
func (q *Query) String() string { return q.src }

// Path returns a deep copy of the query's AST for structural inspection
// and rewriting.
func (q *Query) Path() Path { return q.path.Clone() }

// Plan returns the query's compiled execution plan, built lazily on
// first use and cached for the query's lifetime.
func (q *Query) Plan() *Plan {
	q.planOnce.Do(func() { q.plan = CompilePlan(q.path) })
	return q.plan
}

// Select evaluates the query against root and returns all matching items
// in document order.
func (q *Query) Select(root *xmltree.Node) []Item {
	return q.path.Eval(root)
}

// SelectIndexed is Select accelerated by a document index. A nil index
// (or one that does not cover root, or a query shape the index cannot
// serve) degrades to the tree-walking Select; results are identical
// either way.
func (q *Query) SelectIndexed(root *xmltree.Node, ix DocIndex) []Item {
	return q.SelectIndexedScratch(root, ix, new(Scratch))
}

// SelectIndexedScratch is SelectIndexed evaluating through sc (see
// Scratch for the aliasing contract). A nil index walks the tree without
// compiling the query's plan.
func (q *Query) SelectIndexedScratch(root *xmltree.Node, ix DocIndex, sc *Scratch) []Item {
	if ix == nil {
		return sc.walk(q.path, root)
	}
	return q.Plan().EvalScratch(root, ix, sc)
}

// SelectValuesIndexed is SelectValues accelerated by a document index
// (nil degrades to the tree walk; results are identical either way).
func (q *Query) SelectValuesIndexed(root *xmltree.Node, ix DocIndex) []string {
	items := q.SelectIndexed(root, ix)
	if len(items) == 0 {
		return nil
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Value()
	}
	return out
}

// SelectFirst returns the first matching item, if any.
func (q *Query) SelectFirst(root *xmltree.Node) (Item, bool) {
	items := q.path.Eval(root)
	if len(items) == 0 {
		return Item{}, false
	}
	return items[0], true
}

// SelectValues evaluates the query and returns the string values of all
// matches.
func (q *Query) SelectValues(root *xmltree.Node) []string {
	items := q.path.Eval(root)
	if len(items) == 0 {
		return nil
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Value()
	}
	return out
}
