package xpath

// The planner lowers a parsed Path into a Plan: an execution strategy
// that serves the query from a per-document index (internal/index)
// instead of walking the tree from the root. The shapes it targets are
// exactly the queries WmXML generates in bulk:
//
//	/db/book[title='X']/year        — identity queries (one per carrier)
//	/db/book[5]/year                — positional queries (ablation baseline)
//	db/book[year>1995]/author       — usability probes
//	//book[title='X']/@publisher    — descendant-rooted lookups
//
// Detection evaluates one identity query per carrier, so the tree-walking
// evaluator costs O(records x queries) child scans per document. A plan
// resolves the predicated step through the index in (amortized) constant
// time and drives only the remaining steps through the step evaluator
// (scratch.go), making detection near-linear in document size.
//
// Correctness contract: Plan.Eval returns bit-for-bit the same items in
// the same order as Path.Eval, falling back to the tree walk for any
// shape (or any root/index pairing) the index cannot serve exactly.

import (
	"slices"
	"strings"

	"wmxml/internal/xmltree"
)

// DocIndex is the document-index contract the planner executes against.
// internal/index provides the production implementation; the interface
// lives here so the query layer does not depend on it and tests can fake
// it.
//
// Scope strings come in two forms, both produced only by the planner:
// a rooted tag path like "db/book" (each segment a child step from the
// indexed top), or "//name" (every element with that tag, anywhere).
// Both return elements in document order.
type DocIndex interface {
	// Top returns the node the index was built over — the topmost
	// ancestor of every indexed element. Plans verify it before trusting
	// lookups.
	Top() *xmltree.Node
	// ScopeElements returns the elements addressed by the scope string,
	// in document order. Unknown scopes return nil.
	ScopeElements(scope string) []*xmltree.Node
	// Lookup returns the scope's elements for which the relative path
	// selRel selects at least one item whose string value equals value,
	// in document order.
	Lookup(scope, selRel, value string) []*xmltree.Node
}

type planKind uint8

const (
	// planWalk marks a path the index cannot serve; Eval always walks.
	planWalk planKind = iota
	// planIndexed resolves the scope step through the index.
	planIndexed
)

// Plan is a compiled execution strategy for one Path. Compile once,
// evaluate many times; a Plan is immutable and safe for concurrent use.
type Plan struct {
	path Path
	kind planKind

	// scope addresses the elements of the predicated (or final clean)
	// step: "db/book" or "//book".
	scope string
	// parentScope is scope minus its last segment; used to verify at run
	// time that positional predicates see a single context group.
	parentScope string
	// singleCtx records that the scope step is evaluated from a single
	// context item by construction (first step of the path).
	singleCtx bool

	// useKV routes the first predicate through the key-value index.
	useKV            bool
	selRel, selValue string

	// preds are the scope step's remaining predicates, applied to the
	// looked-up candidates with the standard predicate machinery.
	preds []Expr
	// predsPosFree records that preds never consult the context position
	// (position(), last(), or a numeric predicate value), which makes
	// applying them to the flattened candidate list exact even when the
	// original evaluation would have grouped candidates per parent.
	predsPosFree bool

	// tail is every step after the scope step, driven through the
	// standard evaluator from the candidate set.
	tail []Step
}

// CompilePlan analyzes a path and returns its plan. Paths the index
// cannot serve compile to a fallback plan whose Eval is exactly
// Path.Eval. The path must not be mutated afterwards.
func CompilePlan(p Path) *Plan {
	pl := &Plan{path: p, kind: planWalk}
	n := len(p.Steps)
	if n == 0 {
		return pl
	}

	var preds []Expr
	first := p.Steps[0]
	if first.Axis == AxisDescendant && usableName(first.Name) {
		// "//name" head: served by the tag inverted index. The context is
		// the single start node, so even positional predicates apply to
		// the full candidate list exactly as the evaluator would.
		pl.scope = "//" + first.Name
		pl.singleCtx = true
		preds = first.Predicates
		pl.tail = p.Steps[1:]
	} else {
		// Longest clean child chain (child axis, concrete name, no
		// predicates), optionally ending in one predicated child step.
		m := 0
		for m < n {
			st := p.Steps[m]
			if st.Axis != AxisChild || !usableName(st.Name) || len(st.Predicates) > 0 {
				break
			}
			m++
		}
		k := m // index of the scope step
		if m < n {
			st := p.Steps[m]
			if st.Axis == AxisChild && usableName(st.Name) && len(st.Predicates) > 0 {
				preds = st.Predicates
			} else if m == 0 {
				return pl // unusable first step
			} else {
				k = m - 1 // scope is the clean prefix; the rest is tail
			}
		} else {
			k = n - 1
		}
		segs := make([]string, k+1)
		for i := 0; i <= k; i++ {
			segs[i] = p.Steps[i].Name
		}
		pl.scope = strings.Join(segs, "/")
		pl.parentScope = strings.Join(segs[:len(segs)-1], "/")
		pl.singleCtx = k == 0
		pl.tail = p.Steps[k+1:]
	}

	if len(preds) > 0 {
		if rel, val, ok := eqPredicate(preds[0]); ok {
			pl.useKV = true
			pl.selRel = rel
			pl.selValue = val
			preds = preds[1:]
		}
		pl.preds = preds
		pl.predsPosFree = predsPositionFree(preds)
	}
	pl.kind = planIndexed
	return pl
}

// Indexable reports whether the plan can use an index at all (a
// non-indexable plan always walks the tree).
func (pl *Plan) Indexable() bool { return pl.kind == planIndexed }

// Scope returns the index scope the plan resolves ("" for fallback
// plans); primarily for diagnostics and tests.
func (pl *Plan) Scope() string { return pl.scope }

// UsesKV reports whether the plan routes a predicate through the
// key-value index.
func (pl *Plan) UsesKV() bool { return pl.useKV }

// Eval executes the plan against root on a fresh Scratch, so the result
// is the caller's.
func (pl *Plan) Eval(root *xmltree.Node, ix DocIndex) []Item {
	return pl.EvalScratch(root, ix, new(Scratch))
}

// EvalScratch executes the plan against root through sc (see Scratch
// for the aliasing contract). With a nil index, a fallback plan, or a
// root the index does not cover, it walks the tree from root, on sc too.
func (pl *Plan) EvalScratch(root *xmltree.Node, ix DocIndex, sc *Scratch) []Item {
	if pl.kind != planIndexed || ix == nil || !pl.rootOK(root, ix) {
		return sc.walk(pl.path, root)
	}
	var nodes []*xmltree.Node
	if pl.useKV {
		nodes = ix.Lookup(pl.scope, pl.selRel, pl.selValue)
	} else {
		nodes = ix.ScopeElements(pl.scope)
	}
	if len(nodes) == 0 {
		return nil
	}
	// Sized to the candidates up front: growing the slice by append
	// instead raises BenchmarkEmbed's bytes per op by about 5%.
	sc.a = slices.Grow(sc.a[:0], len(nodes))
	for _, e := range nodes {
		sc.a = append(sc.a, Item{Node: e})
	}
	if len(pl.preds) > 0 {
		// Position-dependent predicates are evaluated per parent group by
		// the tree walk; the flattened candidate list only matches when
		// there is provably a single group.
		if !pl.predsPosFree && !pl.singleGroup(ix) {
			return sc.walk(pl.path, root)
		}
		sc.a = applyPredicatesInPlace(sc.a, pl.preds)
		if len(sc.a) == 0 {
			return nil
		}
	}
	return sc.evalSteps(pl.tail)
}

// rootOK verifies the index covers evaluation from this root: the root's
// topmost ancestor must be the indexed top, and a relative path must
// start at the document node itself (where the index's rooted paths
// begin).
func (pl *Plan) rootOK(root *xmltree.Node, ix DocIndex) bool {
	if root == nil {
		return false
	}
	top := root
	for top.Parent != nil {
		top = top.Parent
	}
	if top != ix.Top() || top == nil {
		return false
	}
	if pl.path.Absolute {
		return true
	}
	return root == top && top.Kind == xmltree.DocumentNode
}

// singleGroup reports whether the scope step sees exactly one context
// group, making flat positional predicate application exact.
func (pl *Plan) singleGroup(ix DocIndex) bool {
	if pl.singleCtx {
		return true
	}
	return len(ix.ScopeElements(pl.parentScope)) <= 1
}

// usableName reports whether a step name can key the index. Names
// containing '/' are rejected: index scope strings join segments with
// '/', so such a name would resolve to the wrong path instead of
// falling back to the tree walk.
func usableName(name string) bool {
	return name != "" && name != "*" && !strings.ContainsRune(name, '/')
}

// eqPredicate matches the identity-query predicate shape
// [relpath = 'literal'] (either operand order) and returns the rendered
// relative selector and the literal. The selector must round-trip
// through the parser because the index re-parses it when building a
// key-value table.
func eqPredicate(e Expr) (rel, val string, ok bool) {
	b, isBinary := e.(Binary)
	if !isBinary || b.Op != "=" {
		return "", "", false
	}
	pe, peOK := b.L.(PathExpr)
	lit, litOK := b.R.(String)
	if !peOK || !litOK {
		pe, peOK = b.R.(PathExpr)
		lit, litOK = b.L.(String)
	}
	if !peOK || !litOK || pe.Path.Absolute {
		return "", "", false
	}
	rel = pe.Path.String()
	rp, err := ParsePath(rel)
	if err != nil || rp.String() != rel {
		return "", "", false
	}
	return rel, lit.Value, true
}

// PositionFreePreds reports whether every predicate in preds is
// independent of the context position — exported for the streaming
// layer's chunk-safety analysis, which must reject queries whose
// result depends on how a sibling list is partitioned.
func PositionFreePreds(preds []Expr) bool { return predsPositionFree(preds) }

// predsPositionFree reports whether every predicate is independent of
// the context position. A predicate depends on position when it calls
// position() or last(), or when its value is numeric (a numeric
// predicate means position()=N) — so only expressions with statically
// boolean or string results qualify. Sub-paths nested inside a predicate
// evaluate in their own context and never disqualify it.
func predsPositionFree(preds []Expr) bool {
	for _, p := range preds {
		if !predPositionFree(p) {
			return false
		}
	}
	return true
}

func predPositionFree(e Expr) bool {
	switch x := e.(type) {
	case String, PathExpr:
		return true
	case Binary:
		// Comparisons and connectives yield booleans.
		return exprAvoidsPosition(x)
	case Call:
		switch x.Name {
		case "not", "contains", "starts-with", "boolean", "true", "false",
			"string", "concat", "normalize-space", "substring",
			"substring-before", "substring-after", "translate", "name":
			return exprAvoidsPosition(x)
		}
		// Numeric-valued calls (position, last, count, sum, ...) act as
		// positional predicates.
		return false
	default:
		return false // Number and anything unknown
	}
}

// exprAvoidsPosition walks an expression tree rejecting position()/last()
// anywhere outside nested sub-paths (whose predicates have their own
// context).
func exprAvoidsPosition(e Expr) bool {
	switch x := e.(type) {
	case Binary:
		return exprAvoidsPosition(x.L) && exprAvoidsPosition(x.R)
	case Call:
		if x.Name == "position" || x.Name == "last" {
			return false
		}
		for _, a := range x.Args {
			if !exprAvoidsPosition(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}
