package xpath

// Aliasing contract: a result evaluated through a caller's Scratch
// aliases the Scratch's buffers and is valid only until its next use, so
// the caller copies or consumes it first. A Scratch is not safe for
// concurrent use; keep one per goroutine (core pools them). Path.Eval,
// Plan.Eval and Query.SelectIndexed each evaluate on a fresh Scratch, so
// their results belong to the caller.

import "wmxml/internal/xmltree"

// Scratch holds the step evaluator's reusable buffers: two Item slices
// that steps alternate between, so a step never writes the one it reads,
// and the dedup set of multi-item contexts. The zero value is ready to
// use.
type Scratch struct {
	a, b []Item
	seen map[Item]bool
}

// walk evaluates p from root by walking the tree.
func (sc *Scratch) walk(p Path, root *xmltree.Node) []Item {
	start := root
	if p.Absolute {
		if d := root.Document(); d != nil {
			start = d
		} else {
			// Detached subtree: treat its top element as the document
			// element, i.e. an absolute path must still name it.
			top := root
			for top.Parent != nil {
				top = top.Parent
			}
			start = &xmltree.Node{Kind: xmltree.DocumentNode, Children: []*xmltree.Node{top}}
		}
	}
	return sc.from(Item{Node: start}, p.Steps)
}

// from drives the single-item context {start} through steps. The first
// step reads start directly, so the context is never materialized.
func (sc *Scratch) from(start Item, steps []Step) []Item {
	if len(steps) == 0 {
		sc.a = append(sc.a[:0], start)
		return sc.a
	}
	first := steps[0]
	sc.a = applyPredicatesInPlace(stepInto(sc.a[:0], start, first), first.Predicates)
	if len(sc.a) == 0 {
		return nil
	}
	return sc.evalSteps(steps[1:])
}

// evalSteps drives the context in sc.a through steps. Each step writes
// into sc.b and the buffers then swap, so a step never writes the buffer
// it reads.
func (sc *Scratch) evalSteps(steps []Step) []Item {
	for _, step := range steps {
		sc.b = sc.evalStepInto(sc.b[:0], sc.a, step)
		sc.a, sc.b = sc.b, sc.a
		if len(sc.a) == 0 {
			return nil
		}
	}
	return sc.a
}

// evalStepInto appends one step's result from ctx to dst, which must not
// alias ctx. A single-item context — the dominant case for rooted
// identity queries — needs no duplicate tracking: every axis produces
// each item at most once from one context item.
func (sc *Scratch) evalStepInto(dst, ctx []Item, step Step) []Item {
	if len(ctx) == 1 {
		dst = stepInto(dst, ctx[0], step)
		return applyPredicatesInPlace(dst, step.Predicates)
	}
	if sc.seen == nil {
		sc.seen = make(map[Item]bool)
	} else {
		clear(sc.seen)
	}
	for _, c := range ctx {
		start := len(dst)
		dst = stepInto(dst, c, step)
		kept := applyPredicatesInPlace(dst[start:], step.Predicates)
		// Dedup-compact the group back onto dst[start:]; the write index
		// never overtakes the read index, so in-place is safe.
		w := start
		for _, it := range kept {
			if !sc.seen[it] {
				sc.seen[it] = true
				dst[w] = it
				w++
			}
		}
		dst = dst[:w]
	}
	return dst
}

// stepInto appends the raw node-set of one step from a single context
// item, before predicates.
func stepInto(dst []Item, c Item, step Step) []Item {
	if c.Attr != "" {
		// Attributes have no children; only self survives.
		if step.Axis == AxisSelf {
			return append(dst, c)
		}
		return dst
	}
	n := c.Node
	switch step.Axis {
	case AxisChild:
		for _, ch := range n.Children {
			if ch.Kind == xmltree.ElementNode && (step.Name == "*" || ch.Name == step.Name) {
				dst = append(dst, Item{Node: ch})
			}
		}
		return dst
	case AxisDescendant:
		for _, ch := range n.Children {
			xmltree.Walk(ch, func(x *xmltree.Node) bool {
				if x.Kind == xmltree.ElementNode && (step.Name == "*" || x.Name == step.Name) {
					dst = append(dst, Item{Node: x})
				}
				return true
			})
		}
		return dst
	case AxisAttribute:
		if n.Kind != xmltree.ElementNode {
			return dst
		}
		if step.Name == "*" {
			for _, a := range n.Attrs {
				dst = append(dst, Item{Node: n, Attr: a.Name})
			}
			return dst
		}
		if n.HasAttr(step.Name) {
			dst = append(dst, Item{Node: n, Attr: step.Name})
		}
		return dst
	case AxisSelf:
		return append(dst, c)
	case AxisParent:
		if n.Parent != nil {
			return append(dst, Item{Node: n.Parent})
		}
		return dst
	case AxisText:
		for _, ch := range n.Children {
			if ch.Kind == xmltree.TextNode {
				dst = append(dst, Item{Node: ch})
			}
		}
		return dst
	default:
		return dst
	}
}

// applyPredicatesInPlace filters group by each predicate in turn,
// compacting it left. The write index never overtakes the read index, so
// compaction while iterating is safe; callers must own the slice's
// backing array.
func applyPredicatesInPlace(group []Item, preds []Expr) []Item {
	for _, pred := range preds {
		if len(group) == 0 {
			return group
		}
		size := len(group)
		w := 0
		for i, it := range group {
			ec := evalCtx{item: it, position: i + 1, size: size}
			v := evalExpr(pred, ec)
			keep := false
			if num, ok := v.(float64); ok {
				// A bare numeric predicate means position()=N.
				keep = float64(ec.position) == num
			} else {
				keep = truth(v)
			}
			if keep {
				group[w] = it
				w++
			}
		}
		group = group[:w]
	}
	return group
}
