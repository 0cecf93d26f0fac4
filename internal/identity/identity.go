// Package identity constructs the identity queries at the heart of WmXML
// (paper §2.2–2.3).
//
// A watermark carrier must be addressable by something that survives
// re-organization, alteration and redundancy removal. WmXML's answer is a
// *query* built from the document's semantics:
//
//   - Keys differentiate instances (challenge A): the year of a book is
//     identified as db/book[title='Readings …']/year, not as "the 5th
//     child of the 1st book".
//   - Functional dependencies canonicalize redundancy (challenge C): with
//     editor → publisher, every publisher value in an editor's group is
//     the *same* logical datum, so the whole group shares one identity —
//     db/book[editor='Harrypotter']/@publisher — and therefore carries
//     the same watermark bit at the same position. Making the duplicates
//     identical (the redundancy-removal attack) then changes nothing.
//
// The package enumerates the document's watermark bandwidth as a list of
// Units: each Unit has a canonical identity string (the HMAC input for
// keyed selection), an identity query (what the user safeguards in Q),
// the physical items the unit currently resolves to, and the value type
// (which picks the embedding plug-in).
package identity

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wmxml/internal/schema"
	"wmxml/internal/semantics"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// Mode selects how identities are constructed.
type Mode uint8

const (
	// ModeSemantic builds identities from keys and FDs (the WmXML
	// scheme).
	ModeSemantic Mode = iota
	// ModePositional builds identities from positional paths (the naive
	// scheme the paper argues against; kept as an ablation baseline for
	// the re-organization experiment).
	ModePositional
)

// Options configures identity construction.
type Options struct {
	// Targets are the value fields carrying watermark bandwidth, as name
	// paths like "db/book/year" or "db/book/@publisher" (paper: the user
	// "specify[s] the data elements with watermark capacity"). Empty
	// means: every typed leaf field under a keyed scope, minus key and
	// text-type fields used as keys.
	Targets []string
	// Mode selects semantic or positional identity construction.
	Mode Mode
	// DisableFDs turns off FD canonicalization (the E5 ablation: without
	// it, redundancy removal erases the mark).
	DisableFDs bool
}

// Unit is one unit of watermark bandwidth: a logical value with a
// persistent identity. A Unit may resolve to several physical items when
// an FD makes them duplicates of one another. Its identity query is not
// built at enumeration: a unit keeps its selector value (or ordinal) and
// its target's parsed query fragments, and Query assembles the query on
// demand — only carriers, about 1/gamma of the units, ever need one.
type Unit struct {
	// ID is the canonical identity string — the input to the keyed
	// selection HMACs. It must be stable across document re-organization
	// (it is derived from semantics, not structure).
	ID string
	// Items are the physical values currently backing the unit, resolved
	// against the document the unit was enumerated from.
	Items []xpath.Item
	// Type is the declared value type, selecting the embedding plug-in.
	Type schema.DataType
	// Scope, Field describe the unit's location (name path of the keyed
	// instance set and the relative field path).
	Scope, Field string
	// SelRel is the relative path whose value forms the query predicate
	// (the key path, the FD determinant, or the field itself for
	// determinant units). Empty for positional units.
	SelRel string
	// GroupValue is the FD grouping value when the unit is an FD
	// canonical group ("" otherwise).
	GroupValue string

	selValue string // the predicate's value at enumeration (semantic units)
	ordinal  int    // the predicate's ordinal (positional units)
	shape    *shape
}

// Query builds the identity query addressing the unit's items, as of
// enumeration: /scope[selector='value']/field, or /scope[ordinal]/field
// for positional units.
func (u Unit) Query() *xpath.Query {
	if u.SelRel == "" {
		return u.shape.query(xpath.Number{Value: float64(u.ordinal)})
	}
	return u.shape.query(u.shape.predicate(u.selValue))
}

// Instance returns the scope instance element owning the i-th item.
func (u Unit) Instance(i int) *xmltree.Node {
	if i < 0 || i >= len(u.Items) {
		return nil
	}
	it := u.Items[i]
	if it.IsAttr() {
		return it.Node
	}
	return it.Node.Parent
}

// SelectorItem resolves the unit's selector on its first instance in the
// document's current state: the value Rebuild names in its predicate.
// It reports false for positional units and when the selector is gone.
func (u Unit) SelectorItem() (xpath.Item, bool) {
	inst := u.Instance(0)
	if u.SelRel == "" || inst == nil {
		return xpath.Item{}, false
	}
	return u.shape.selQ.SelectFirst(inst)
}

// Rebuild regenerates the unit's identity query from the *current* state
// of the document. The encoder calls this after embedding: marking a
// value that also serves as a selector (an FD determinant marked through
// a det-unit) changes the predicate value, and the paper's workflow
// generates Q after insertion ("the encoder embeds the watermark into
// the data and generates a set of identifying queries").
func (u Unit) Rebuild() (*xpath.Query, error) {
	if u.SelRel == "" {
		return u.Query(), nil // positional units: structure unchanged by embedding
	}
	it, ok := u.SelectorItem()
	if !ok {
		return nil, fmt.Errorf("identity: selector %q missing on instance of %q", u.SelRel, u.ID)
	}
	return u.RebuildWithValue(it.Value())
}

// RebuildWithValue is Rebuild with the selector's post-insertion value
// supplied by the caller instead of read from the document. The plan
// compiler uses it to precompute a unit's identity query for a payload
// it has not applied: it knows what the selector value *would* be under
// either bit choice without mutating the document.
func (u Unit) RebuildWithValue(selValue string) (*xpath.Query, error) {
	if u.SelRel == "" {
		return u.Query(), nil
	}
	if !quotable(selValue) {
		return nil, fmt.Errorf("identity: value %q contains both quote kinds", selValue)
	}
	return u.shape.query(u.shape.predicate(selValue)), nil
}

// Target is a parsed target field.
type Target struct {
	// Scope is the name path of the instance set, e.g. "db/book".
	Scope string
	// Field is the relative field path, e.g. "year" or "@publisher".
	Field string
	// Type is the field's declared value type.
	Type schema.DataType
}

// String renders the target as a name path.
func (t Target) String() string { return t.Scope + "/" + t.Field }

// Report describes the outcome of bandwidth enumeration, for the
// capacity experiment (E1) and for user diagnostics.
type Report struct {
	Targets []Target
	// Units is the usable bandwidth in units.
	Units int
	// FDGroups counts units that aggregate >= 2 physical items.
	FDGroups int
	// PhysicalItems counts all physical value items covered by units.
	PhysicalItems int
	// Skipped counts identifiable problems: instances without key values,
	// values not embeddable, quoting conflicts.
	Skipped map[string]int
}

// Builder enumerates watermark bandwidth for documents of one schema.
type Builder struct {
	schema  *schema.Schema
	catalog semantics.Catalog
	opts    Options
}

// NewBuilder creates a Builder. The schema provides structure and types;
// the catalog provides keys and FDs; opts selects targets and mode.
func NewBuilder(s *schema.Schema, cat semantics.Catalog, opts Options) *Builder {
	return &Builder{schema: s, catalog: cat, opts: opts}
}

// ResolveTargets determines the target fields: either parsing the
// configured ones or auto-deriving all usable fields. Duplicates are
// dropped (first occurrence wins): a repeated target would enumerate
// the same physical values twice — double-embedding sequentially and
// racing on shared nodes under the concurrent encoder.
func (b *Builder) ResolveTargets() ([]Target, error) {
	if len(b.opts.Targets) > 0 {
		out := make([]Target, 0, len(b.opts.Targets))
		seen := make(map[string]bool, len(b.opts.Targets))
		for _, t := range b.opts.Targets {
			tgt, err := b.parseTarget(t)
			if err != nil {
				return nil, err
			}
			if seen[tgt.String()] {
				continue
			}
			seen[tgt.String()] = true
			out = append(out, tgt)
		}
		return out, nil
	}
	return b.autoTargets()
}

func (b *Builder) parseTarget(t string) (Target, error) {
	t = strings.TrimPrefix(strings.TrimSpace(t), "/")
	i := strings.LastIndexByte(t, '/')
	if i <= 0 {
		return Target{}, fmt.Errorf("identity: target %q must be scope/field", t)
	}
	scope, field := t[:i], t[i+1:]
	typ, err := b.fieldType(scope, field)
	if err != nil {
		return Target{}, err
	}
	return Target{Scope: scope, Field: field, Type: typ}, nil
}

// fieldType resolves the declared type of a field under a scope.
func (b *Builder) fieldType(scope, field string) (schema.DataType, error) {
	segs := strings.Split(scope, "/")
	scopeElem := segs[len(segs)-1]
	decl := b.schema.Element(scopeElem)
	if decl == nil {
		return schema.TypeNone, fmt.Errorf("identity: scope element %q not in schema", scopeElem)
	}
	if strings.HasPrefix(field, "@") {
		ad, ok := decl.Attr(field[1:])
		if !ok {
			return schema.TypeNone, fmt.Errorf("identity: attribute %q not declared on %q", field, scopeElem)
		}
		return ad.Type, nil
	}
	if _, ok := decl.Child(field); !ok {
		return schema.TypeNone, fmt.Errorf("identity: element %q not declared under %q", field, scopeElem)
	}
	fd := b.schema.Element(field)
	if fd == nil {
		return schema.TypeNone, fmt.Errorf("identity: element %q not in schema", field)
	}
	if !fd.IsLeaf() {
		return schema.TypeNone, fmt.Errorf("identity: element %q is not a leaf", field)
	}
	return fd.Type, nil
}

// autoTargets derives targets from the schema: for every keyed scope,
// every single-valued leaf child and attribute with a usable type,
// except the key field itself.
func (b *Builder) autoTargets() ([]Target, error) {
	var out []Target
	seen := make(map[string]bool)
	add := func(t Target) {
		if !seen[t.String()] {
			seen[t.String()] = true
			out = append(out, t)
		}
	}
	for _, key := range b.catalog.Keys {
		segs := strings.Split(key.Scope, "/")
		decl := b.schema.Element(segs[len(segs)-1])
		if decl == nil {
			continue
		}
		for _, cd := range decl.Children {
			child := b.schema.Element(cd.Name)
			if child == nil || !child.IsLeaf() || child.Type == schema.TypeNone {
				continue
			}
			if cd.Name == key.KeyPath {
				continue // never mark the key: it is the identifier
			}
			if cd.MaxOccurs != 1 {
				continue // multi-valued children are not uniquely addressable by the key alone
			}
			add(Target{Scope: key.Scope, Field: cd.Name, Type: child.Type})
		}
		for _, ad := range decl.Attrs {
			if "@"+ad.Name == key.KeyPath {
				continue
			}
			add(Target{Scope: key.Scope, Field: "@" + ad.Name, Type: ad.Type})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// Units enumerates the watermark bandwidth of a document.
func (b *Builder) Units(doc *xmltree.Node) ([]Unit, Report, error) {
	return b.UnitsIndexed(doc, nil)
}

// UnitsIndexed is Units with a shared document index accelerating scope
// enumeration (one rooted-path lookup per target instead of one tree
// walk). ix may be nil; the enumerated units are identical either way.
func (b *Builder) UnitsIndexed(doc *xmltree.Node, ix xpath.DocIndex) ([]Unit, Report, error) {
	rep := Report{Skipped: make(map[string]int)}
	targets, err := b.ResolveTargets()
	if err != nil {
		return nil, rep, err
	}
	rep.Targets = targets
	var units []Unit
	for _, tgt := range targets {
		var err error
		if b.opts.Mode == ModePositional {
			units, err = b.positionalUnits(units, doc, tgt, ix, &rep)
		} else {
			units, err = b.semanticUnits(units, doc, tgt, ix, &rep)
		}
		if err != nil {
			return nil, rep, err
		}
	}
	rep.Units = len(units)
	for _, u := range units {
		rep.PhysicalItems += len(u.Items)
		if len(u.Items) >= 2 {
			rep.FDGroups++
		}
	}
	return units, rep, nil
}

// semanticUnits appends the key/FD-based units of one target to units.
func (b *Builder) semanticUnits(units []Unit, doc *xmltree.Node, tgt Target, ix xpath.DocIndex, rep *Report) ([]Unit, error) {
	key, ok := b.catalog.KeyFor(tgt.Scope)
	if !ok {
		rep.Skipped["no key for scope "+tgt.Scope] += 1
		return units, nil
	}
	insts, err := semantics.InstancesIndexed(doc, tgt.Scope, ix)
	if err != nil {
		return nil, err
	}
	keyQ, err := xpath.Compile(key.KeyPath)
	if err != nil {
		return nil, fmt.Errorf("identity: key path %q: %w", key.KeyPath, err)
	}
	fieldQ, err := xpath.Compile(tgt.Field)
	if err != nil {
		return nil, fmt.Errorf("identity: field %q: %w", tgt.Field, err)
	}

	// Determine the FD treatment of this field within the scope.
	var groupRel string // relative path whose value groups duplicates
	groupSelf := false
	if !b.opts.DisableFDs {
		for _, fd := range b.catalog.FDsFor(tgt.Scope) {
			if fd.Dependent == tgt.Field {
				groupRel = fd.Determinant
				break
			}
			if fd.Determinant == tgt.Field {
				groupRel = tgt.Field
				groupSelf = true
				break
			}
		}
	}

	if groupRel != "" {
		return b.fdUnits(units, insts, tgt, groupRel, groupSelf, fieldQ, rep)
	}

	// A scope that does not parse as a query leaves no unit addressable:
	// each is skipped like an unquotable value.
	sh, shapeErr := newShape(tgt.Scope, keyQ, fieldQ)
	units = slices.Grow(units, len(insts))
	for _, inst := range insts {
		kv, ok := keyQ.SelectFirst(inst)
		v := kv.Value()
		if !ok || strings.TrimSpace(v) == "" {
			rep.Skipped["missing key value"]++
			continue
		}
		item, ok := fieldQ.SelectFirst(inst)
		if !ok {
			rep.Skipped["missing field "+tgt.Field]++
			continue
		}
		if shapeErr != nil || !quotable(v) {
			rep.Skipped["unquotable value"]++
			continue
		}
		units = append(units, Unit{
			ID:       canonicalID("key", tgt.Scope, tgt.Field, v),
			Items:    []xpath.Item{item},
			Type:     tgt.Type,
			Scope:    tgt.Scope,
			Field:    tgt.Field,
			SelRel:   key.KeyPath,
			selValue: v,
			shape:    sh,
		})
	}
	return units, nil
}

// fdUnits groups instances by the grouping value and appends one unit
// per group to units.
func (b *Builder) fdUnits(units []Unit, insts []*xmltree.Node, tgt Target, groupRel string, groupSelf bool, fieldQ *xpath.Query, rep *Report) ([]Unit, error) {
	groupQ, err := xpath.Compile(groupRel)
	if err != nil {
		return nil, fmt.Errorf("identity: group path %q: %w", groupRel, err)
	}
	groups := make(map[string][]xpath.Item)
	for _, inst := range insts {
		gvItem, ok := groupQ.SelectFirst(inst)
		if !ok || strings.TrimSpace(gvItem.Value()) == "" {
			rep.Skipped["missing group value"]++
			continue
		}
		item, ok := fieldQ.SelectFirst(inst)
		if !ok {
			rep.Skipped["missing field "+tgt.Field]++
			continue
		}
		groups[gvItem.Value()] = append(groups[gvItem.Value()], item)
	}
	vals := make([]string, 0, len(groups))
	for v := range groups {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	kind := "fd"
	if groupSelf {
		kind = "det"
	}
	sh, shapeErr := newShape(tgt.Scope, groupQ, fieldQ)
	for _, v := range vals {
		if shapeErr != nil || !quotable(v) {
			rep.Skipped["unquotable value"]++
			continue
		}
		units = append(units, Unit{
			ID:         canonicalID(kind, tgt.Scope, tgt.Field, v),
			Items:      groups[v],
			Type:       tgt.Type,
			Scope:      tgt.Scope,
			Field:      tgt.Field,
			SelRel:     groupRel,
			GroupValue: v,
			selValue:   v,
			shape:      sh,
		})
	}
	return units, nil
}

// positionalUnits appends ordinal-based units (ablation baseline) to
// units.
func (b *Builder) positionalUnits(units []Unit, doc *xmltree.Node, tgt Target, ix xpath.DocIndex, rep *Report) ([]Unit, error) {
	insts, err := semantics.InstancesIndexed(doc, tgt.Scope, ix)
	if err != nil {
		return nil, err
	}
	fieldQ, err := xpath.Compile(tgt.Field)
	if err != nil {
		return nil, err
	}
	sh, shapeErr := newShape(tgt.Scope, nil, fieldQ)
	units = slices.Grow(units, len(insts))
	for idx, inst := range insts {
		item, ok := fieldQ.SelectFirst(inst)
		if !ok {
			rep.Skipped["missing field "+tgt.Field]++
			continue
		}
		if shapeErr != nil {
			return nil, shapeErr
		}
		units = append(units, Unit{
			ID:      canonicalID("pos", tgt.Scope, tgt.Field, strconv.Itoa(idx+1)),
			Items:   []xpath.Item{item},
			Type:    tgt.Type,
			Scope:   tgt.Scope,
			Field:   tgt.Field,
			ordinal: idx + 1,
			shape:   sh,
		})
	}
	return units, nil
}

// canonicalID builds the HMAC input. The separator bytes cannot occur in
// name paths, so distinct (kind, scope, field, value) tuples cannot
// collide.
func canonicalID(kind, scope, field, value string) string {
	return kind + "\x1f" + scope + "\x1f" + field + "\x1f" + value
}

// quotable reports whether v can be written as an XPath 1.0 string
// literal, which has no escapes: v must not hold both quote kinds.
func quotable(v string) bool {
	return !strings.Contains(v, "'") || !strings.Contains(v, `"`)
}

// shape is what every unit of one target shares: the fragments its
// identity queries are assembled from — "/scope", the selector path and
// the field path — parsed once per target, and the compiled selector
// query Rebuild reads the current selector value through.
type shape struct {
	scope, sel, field xpath.Path
	selQ              *xpath.Query // nil for positional units
}

// newShape parses the target's scope and takes the selector and field
// paths from their compiled queries; selQ is nil for positional units.
func newShape(scope string, selQ, fieldQ *xpath.Query) (*shape, error) {
	scopePath, err := xpath.ParsePath("/" + scope)
	if err != nil {
		return nil, err
	}
	sh := &shape{scope: scopePath, field: fieldQ.Path(), selQ: selQ}
	if selQ != nil {
		sh.sel = selQ.Path()
	}
	return sh, nil
}

// predicate is the identity predicate selector='value' (proper literal
// quoting included; the value must be quotable).
func (sh *shape) predicate(value string) xpath.Expr {
	return xpath.Binary{Op: "=", L: xpath.PathExpr{Path: sh.sel}, R: xpath.String{Value: value}}
}

// query assembles /scope[pred]/field. The fragments are shared by all
// of the target's units, so the scope's last step gets a fresh predicate
// slice and FromPath deep-copies the assembled path.
func (sh *shape) query(pred xpath.Expr) *xpath.Query {
	steps := make([]xpath.Step, 0, len(sh.scope.Steps)+len(sh.field.Steps))
	steps = append(steps, sh.scope.Steps...)
	last := &steps[len(steps)-1]
	last.Predicates = append(last.Predicates[:len(last.Predicates):len(last.Predicates)], pred)
	steps = append(steps, sh.field.Steps...)
	return xpath.FromPath(xpath.Path{Absolute: sh.scope.Absolute, Steps: steps})
}
