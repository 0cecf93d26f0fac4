// Package semantics models the data semantics WmXML builds identifiers
// from: keys and functional dependencies (FDs).
//
// Paper §2.3: "An XML document can usually be modeled as a tree structure,
// in which two major forms of semantics could be found — keys and
// functional dependencies. … WmXML constructs identifiers from these keys
// and functional dependencies, so that the identifiers can differentiate
// different data elements and be independent from data redundancies."
//
// A Key says: within the instance set selected by Scope, the value at
// KeyPath uniquely identifies an instance (e.g. every db/book has a
// distinct title). An FD says: within Scope, the value at Determinant
// functionally determines the value at Dependent (the paper's example:
// editor → publisher — an editor works for exactly one publisher, so
// publisher values repeat wherever an editor repeats). Keys feed identity
// queries; FDs expose the redundancy that the redundancy-removal attack
// exploits.
package semantics

import (
	"fmt"
	"sort"
	"strings"

	"wmxml/internal/schema"
	"wmxml/internal/xmltree"
	"wmxml/internal/xpath"
)

// Key declares a key constraint: KeyPath is unique and total over the
// instances selected by Scope.
type Key struct {
	// Scope is the name path (e.g. "db/book") selecting the keyed
	// instances.
	Scope string
	// KeyPath is an XPath relative to an instance (e.g. "title" or
	// "@isbn") whose value identifies the instance.
	KeyPath string
}

// String renders the key as Scope ! KeyPath.
func (k Key) String() string { return k.Scope + " ! " + k.KeyPath }

// FD declares a functional dependency within the instances of Scope:
// Determinant → Dependent.
type FD struct {
	Scope       string
	Determinant string
	Dependent   string
}

// String renders the FD as Scope : Determinant -> Dependent.
func (f FD) String() string {
	return fmt.Sprintf("%s : %s -> %s", f.Scope, f.Determinant, f.Dependent)
}

// compileScope turns a name path like "db/book" into an absolute query.
func compileScope(scope string) (*xpath.Query, error) {
	s := strings.TrimPrefix(scope, "/")
	if s == "" {
		return nil, fmt.Errorf("semantics: empty scope")
	}
	return xpath.Compile("/" + s)
}

// Instances returns the elements selected by a scope name path.
func Instances(doc *xmltree.Node, scope string) ([]*xmltree.Node, error) {
	return InstancesIndexed(doc, scope, nil)
}

// InstancesIndexed is Instances accelerated by a document index; ix may
// be nil, and results are identical either way.
func InstancesIndexed(doc *xmltree.Node, scope string, ix xpath.DocIndex) ([]*xmltree.Node, error) {
	q, err := compileScope(scope)
	if err != nil {
		return nil, err
	}
	items := q.SelectIndexed(doc, ix)
	out := make([]*xmltree.Node, 0, len(items))
	for _, it := range items {
		if !it.IsAttr() && it.Node.Kind == xmltree.ElementNode {
			out = append(out, it.Node)
		}
	}
	return out, nil
}

// relValue evaluates a relative path from an instance and returns the
// value of the first match plus whether any match exists.
func relValue(inst *xmltree.Node, rel *xpath.Query) (string, bool) {
	it, ok := rel.SelectFirst(inst)
	if !ok {
		return "", false
	}
	return it.Value(), true
}

// KeyReport is the outcome of verifying a key constraint on a document.
type KeyReport struct {
	Key        Key
	Instances  int
	Missing    int                 // instances with no key value
	Duplicates map[string][]string // key value -> instance paths (len > 1)
}

// OK reports whether the key holds: total and unique.
func (r KeyReport) OK() bool { return r.Missing == 0 && len(r.Duplicates) == 0 }

// VerifyKey checks a key constraint against a document.
func VerifyKey(doc *xmltree.Node, key Key) (KeyReport, error) {
	rep := KeyReport{Key: key, Duplicates: make(map[string][]string)}
	insts, err := Instances(doc, key.Scope)
	if err != nil {
		return rep, err
	}
	rel, err := xpath.Compile(key.KeyPath)
	if err != nil {
		return rep, fmt.Errorf("semantics: key path %q: %w", key.KeyPath, err)
	}
	rep.Instances = len(insts)
	// Node.Path scans the siblings, so a path is built only for the
	// instances a duplicate group reports: one per instance would be
	// quadratic on a wide parent.
	byVal := make(map[string][]*xmltree.Node)
	for _, inst := range insts {
		v, ok := relValue(inst, rel)
		if !ok || strings.TrimSpace(v) == "" {
			rep.Missing++
			continue
		}
		byVal[v] = append(byVal[v], inst)
	}
	for v, dups := range byVal {
		if len(dups) < 2 {
			continue
		}
		for _, inst := range dups {
			rep.Duplicates[v] = append(rep.Duplicates[v], inst.Path())
		}
	}
	return rep, nil
}

// FDViolation is one instance pair breaking a functional dependency.
type FDViolation struct {
	DeterminantValue string
	DependentValues  []string // the distinct conflicting values
}

// FDReport is the outcome of verifying an FD on a document.
type FDReport struct {
	FD         FD
	Instances  int
	Groups     int // distinct determinant values observed
	MaxGroup   int // size of the largest group
	DupMembers int // instances living in groups of size >= 2
	Violations []FDViolation
}

// OK reports whether the dependency holds on the document.
func (r FDReport) OK() bool { return len(r.Violations) == 0 }

// VerifyFD checks a functional dependency against a document.
func VerifyFD(doc *xmltree.Node, fd FD) (FDReport, error) {
	rep := FDReport{FD: fd}
	insts, err := Instances(doc, fd.Scope)
	if err != nil {
		return rep, err
	}
	det, err := xpath.Compile(fd.Determinant)
	if err != nil {
		return rep, fmt.Errorf("semantics: determinant %q: %w", fd.Determinant, err)
	}
	dep, err := xpath.Compile(fd.Dependent)
	if err != nil {
		return rep, fmt.Errorf("semantics: dependent %q: %w", fd.Dependent, err)
	}
	rep.Instances = len(insts)
	type group struct {
		values map[string]bool
		size   int
	}
	groups := make(map[string]*group)
	for _, inst := range insts {
		dv, ok := relValue(inst, det)
		if !ok {
			continue
		}
		pv, ok := relValue(inst, dep)
		if !ok {
			continue
		}
		g := groups[dv]
		if g == nil {
			g = &group{values: make(map[string]bool)}
			groups[dv] = g
		}
		g.values[pv] = true
		g.size++
	}
	rep.Groups = len(groups)
	keys := make([]string, 0, len(groups))
	for dv := range groups {
		keys = append(keys, dv)
	}
	sort.Strings(keys)
	for _, dv := range keys {
		g := groups[dv]
		if g.size > rep.MaxGroup {
			rep.MaxGroup = g.size
		}
		if g.size >= 2 {
			rep.DupMembers += g.size
		}
		if len(g.values) > 1 {
			vals := make([]string, 0, len(g.values))
			for v := range g.values {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			rep.Violations = append(rep.Violations, FDViolation{DeterminantValue: dv, DependentValues: vals})
		}
	}
	return rep, nil
}

// DupGroup is one redundancy group induced by an FD: the set of dependent
// items that must agree because they share a determinant value.
type DupGroup struct {
	FD               FD
	DeterminantValue string
	// Members are the dependent value items (elements or attributes),
	// one per instance in the group.
	Members []xpath.Item
}

// DuplicateGroups computes all redundancy groups of an FD over a
// document, including singleton groups (callers filter by size when they
// only care about true duplication). Groups are sorted by determinant
// value.
func DuplicateGroups(doc *xmltree.Node, fd FD) ([]DupGroup, error) {
	insts, err := Instances(doc, fd.Scope)
	if err != nil {
		return nil, err
	}
	det, err := xpath.Compile(fd.Determinant)
	if err != nil {
		return nil, err
	}
	dep, err := xpath.Compile(fd.Dependent)
	if err != nil {
		return nil, err
	}
	byVal := make(map[string][]xpath.Item)
	for _, inst := range insts {
		dv, ok := relValue(inst, det)
		if !ok {
			continue
		}
		item, ok := dep.SelectFirst(inst)
		if !ok {
			continue
		}
		byVal[dv] = append(byVal[dv], item)
	}
	vals := make([]string, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	out := make([]DupGroup, 0, len(vals))
	for _, v := range vals {
		out = append(out, DupGroup{FD: fd, DeterminantValue: v, Members: byVal[v]})
	}
	return out, nil
}

// Catalog bundles the semantic constraints a user supplies for a
// document type (paper §3: "the keys and FDs that he discovered from the
// schema of the copyrighted semi-structured data").
type Catalog struct {
	Keys []Key
	FDs  []FD
}

// Verify checks every constraint in the catalog and returns the failing
// ones with their reports.
func (c Catalog) Verify(doc *xmltree.Node) ([]KeyReport, []FDReport, error) {
	var keyReps []KeyReport
	var fdReps []FDReport
	for _, k := range c.Keys {
		r, err := VerifyKey(doc, k)
		if err != nil {
			return nil, nil, err
		}
		keyReps = append(keyReps, r)
	}
	for _, f := range c.FDs {
		r, err := VerifyFD(doc, f)
		if err != nil {
			return nil, nil, err
		}
		fdReps = append(fdReps, r)
	}
	return keyReps, fdReps, nil
}

// KeyFor returns the first key whose scope matches, if any.
func (c Catalog) KeyFor(scope string) (Key, bool) {
	for _, k := range c.Keys {
		if k.Scope == scope {
			return k, true
		}
	}
	return Key{}, false
}

// FDsFor returns all FDs scoped at the given name path.
func (c Catalog) FDsFor(scope string) []FD {
	var out []FD
	for _, f := range c.FDs {
		if f.Scope == scope {
			out = append(out, f)
		}
	}
	return out
}

// fieldPaths lists the candidate identifying fields of an element
// declaration: its leaf children that occur at most once per instance,
// plus its attributes (as "@name" paths).
func fieldPaths(s *schema.Schema, decl *schema.ElementDecl) []string {
	var out []string
	for _, cd := range decl.Children {
		child := s.Element(cd.Name)
		if child == nil || !child.IsLeaf() {
			continue
		}
		if cd.MaxOccurs != 1 && cd.MaxOccurs != schema.Unbounded {
			continue
		}
		out = append(out, cd.Name)
	}
	for _, ad := range decl.Attrs {
		out = append(out, "@"+ad.Name)
	}
	sort.Strings(out)
	return out
}

// DiscoverKeys proposes key constraints by testing, for every element
// with at least minInstances instances, whether any candidate field is
// total and unique. The document is evidence, not proof — discovered
// keys are suggestions for the user to confirm, mirroring the paper's
// user-driven workflow.
func DiscoverKeys(doc *xmltree.Node, s *schema.Schema, minInstances int) ([]Key, error) {
	if minInstances < 2 {
		minInstances = 2
	}
	var out []Key
	for _, name := range s.ElementNames() {
		decl := s.Element(name)
		if decl.IsLeaf() {
			continue
		}
		for _, scope := range s.PathsTo(name) {
			insts, err := Instances(doc, scope)
			if err != nil {
				return nil, err
			}
			if len(insts) < minInstances {
				continue
			}
			for _, field := range fieldPaths(s, decl) {
				k := Key{Scope: scope, KeyPath: field}
				rep, err := VerifyKey(doc, k)
				if err != nil {
					return nil, err
				}
				if rep.OK() {
					out = append(out, k)
				}
			}
		}
	}
	return out, nil
}

// DiscoveredFD pairs a proposed FD with its evidence: how many duplicate
// members witness it (higher support means the FD explains more
// redundancy and matters more to watermarking).
type DiscoveredFD struct {
	FD      FD
	Support int // instances living in duplicate groups
}

// DiscoverFDs proposes functional dependencies: for every element scope
// with enough instances, every ordered pair of candidate fields
// (determinant, dependent) that holds functionally, is non-trivial and
// has at least one duplicate group. Determinants that are themselves
// unique are skipped — such FDs hold vacuously and expose no redundancy.
func DiscoverFDs(doc *xmltree.Node, s *schema.Schema, minInstances int) ([]DiscoveredFD, error) {
	if minInstances < 2 {
		minInstances = 2
	}
	var out []DiscoveredFD
	for _, name := range s.ElementNames() {
		decl := s.Element(name)
		if decl.IsLeaf() {
			continue
		}
		for _, scope := range s.PathsTo(name) {
			insts, err := Instances(doc, scope)
			if err != nil {
				return nil, err
			}
			if len(insts) < minInstances {
				continue
			}
			fields := fieldPaths(s, decl)
			for _, det := range fields {
				detRep, err := VerifyKey(doc, Key{Scope: scope, KeyPath: det})
				if err != nil {
					return nil, err
				}
				if detRep.OK() {
					continue // determinant unique: vacuous FD
				}
				for _, dep := range fields {
					if det == dep {
						continue
					}
					fd := FD{Scope: scope, Determinant: det, Dependent: dep}
					rep, err := VerifyFD(doc, fd)
					if err != nil {
						return nil, err
					}
					if rep.OK() && rep.DupMembers > 0 {
						out = append(out, DiscoveredFD{FD: fd, Support: rep.DupMembers})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].FD.String() < out[j].FD.String()
	})
	return out, nil
}
