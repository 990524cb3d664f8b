// Package signature implements query signatures (paper §III): the algebra
// of table names, stars (α*) and concatenations (αβ), their derivation from
// hierarchical query trees (Fig. 4), FD-based refinement via reducts (§IV),
// minimal covers (Def. III.3), the 1scan property (Def. V.8) and the closed
// form of #scans(α) (Prop. V.10), and the §V scheduler (scantree.go) — the one
// place that turns a signature into a confidence plan: Schedule's
// aggregation steps and final 1scan signature, the 1scanTree whose preorder
// is the operator's sort order (§V.C), and the representative Rep that an
// eager operator leaves behind, with Collapse applying it (§V.B). The
// confidence operator (internal/conf), the planner and its cost model
// (internal/plan) read this schedule rather than derive their own.
package signature

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fd"
	"repro/internal/query"
)

// Sig is a query signature: Table, Star or Concat (Def. III.1). The
// equivalence (α*)* = α* is kept implicit by construction: NewStar never
// nests stars directly.
type Sig interface {
	// String renders the signature in the paper's notation, with spaces
	// separating concatenation components.
	String() string
	sig()
}

// Table is a signature consisting of one table name.
type Table string

func (t Table) sig() {}

// String returns the table name.
func (t Table) String() string { return string(t) }

// Star is the signature α* — "there may be several tuples per distinct
// value of the parent attributes".
type Star struct {
	Inner Sig
}

func (s Star) sig() {}

// String renders α*, parenthesizing composite inners.
func (s Star) String() string {
	if _, ok := s.Inner.(Table); ok {
		return s.Inner.String() + "*"
	}
	return "(" + s.Inner.String() + ")*"
}

// Concat is a concatenation of signatures.
type Concat []Sig

func (c Concat) sig() {}

// String joins the components with spaces.
func (c Concat) String() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// NewStar builds α*, applying (α*)* = α* and flattening singleton concats.
func NewStar(inner Sig) Sig {
	inner = simplify(inner)
	if st, ok := inner.(Star); ok {
		return st
	}
	return Star{Inner: inner}
}

// NewConcat builds a concatenation, flattening nested concats and
// collapsing singletons.
func NewConcat(parts ...Sig) Sig {
	var flat Concat
	for _, p := range parts {
		if c, ok := p.(Concat); ok {
			flat = append(flat, c...)
		} else {
			flat = append(flat, p)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return flat
}

func simplify(s Sig) Sig {
	if c, ok := s.(Concat); ok && len(c) == 1 {
		return c[0]
	}
	return s
}

// Equal reports structural signature equality.
func Equal(a, b Sig) bool {
	switch x := a.(type) {
	case Table:
		y, ok := b.(Table)
		return ok && x == y
	case Star:
		y, ok := b.(Star)
		return ok && Equal(x.Inner, y.Inner)
	case Concat:
		y, ok := b.(Concat)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Tables lists the table names of a signature in syntactic (left-to-right)
// order.
func Tables(s Sig) []string {
	var out []string
	var walk func(Sig)
	walk = func(s Sig) {
		switch x := s.(type) {
		case Table:
			out = append(out, string(x))
		case Star:
			walk(x.Inner)
		case Concat:
			for _, c := range x {
				walk(c)
			}
		}
	}
	walk(s)
	return out
}

// FromTree derives the signature of a hierarchical query tree per Fig. 4:
// top-down with L holding the accumulated parent attributes; a node
// contributes a star exactly when its (accumulated) attribute set differs
// from L.
func FromTree(t *query.Tree) Sig {
	return derive(t, nil)
}

func derive(t *query.Tree, parentLabel []string) Sig {
	if t.IsLeaf() {
		if sameSet(t.Leaf.Attrs, parentLabel) {
			return Table(t.Leaf.Name)
		}
		return NewStar(Table(t.Leaf.Name))
	}
	parts := make([]Sig, len(t.Children))
	for i, c := range t.Children {
		parts[i] = derive(c, t.Label)
	}
	sortParts(parts)
	inner := NewConcat(parts...)
	if sameSet(t.Label, parentLabel) {
		return inner
	}
	return NewStar(inner)
}

// sortParts canonicalizes the component order of a derived concatenation
// the way the paper renders signatures: bare tables first, then starred
// leaves, then composite subtrees, preserving query order within each rank
// (e.g. Nation2 before (Cust(Ord Item*)*)*, Cust* before (Ord*Item*)*).
// Concatenation order is semantically irrelevant — components use disjoint
// variable sets — so this is purely presentational.
func sortParts(parts []Sig) {
	rank := func(s Sig) int {
		switch x := s.(type) {
		case Table:
			return 0
		case Star:
			if _, leaf := x.Inner.(Table); leaf {
				return 1
			}
			return 2
		default:
			return 2
		}
	}
	slices.SortStableFunc(parts, func(a, b Sig) int { return rank(a) - rank(b) })
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	slices.Sort(as)
	slices.Sort(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Plain derives the query's signature from its full join structure (the
// signatures quoted in the paper before FDs are considered, e.g.
// (Cust*(Ord*Item*)*)* for the Introduction's query).
func Plain(q *query.Query) (Sig, error) {
	t, err := query.FullTree(q)
	if err != nil {
		return nil, fmt.Errorf("signature: %w", err)
	}
	return FromTree(t), nil
}

// WithFDs derives the refined signature from the FD-reduct of q under
// sigma (§IV): non-hierarchical queries may become hierarchical, and
// hierarchical ones get fewer stars (e.g. (Cust(Ord Item*)*)* under the
// TPC-H keys).
func WithFDs(q *query.Query, sigma *fd.Set) (Sig, error) {
	_, tree, err := fd.HierarchicalReduct(q, sigma)
	if err != nil {
		return nil, err
	}
	return FromTree(tree), nil
}

// Best returns the most precise signature available: the FD-refined one
// when the reduct is hierarchical, otherwise the plain one.
func Best(q *query.Query, sigma *fd.Set) (Sig, error) {
	if s, err := WithFDs(q, sigma); err == nil {
		return s, nil
	}
	return Plain(q)
}

// hasBareTable reports whether a concatenation (or single signature)
// directly contains an unstarred table.
func hasBareTable(s Sig) bool {
	switch x := s.(type) {
	case Table:
		return true
	case Concat:
		for _, c := range x {
			if _, ok := c.(Table); ok {
				return true
			}
		}
	}
	return false
}

// OneScan reports the 1scan property (Def. V.8): every starred
// subexpression β* of the signature must have a directly contained
// unstarred table in β, recursively.
func OneScan(s Sig) bool {
	switch x := s.(type) {
	case Table:
		return true
	case Star:
		return hasBareTable(x.Inner) && OneScan(x.Inner)
	case Concat:
		for _, c := range x {
			if !OneScan(c) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// NumScans computes #scans(α) (Prop. V.10): one plus the number of starred
// subexpressions, including α itself, without the 1scan property.
func NumScans(s Sig) int {
	return 1 + countBadStars(s)
}

// countBadStars counts the starred subexpressions lacking a directly
// contained unstarred table. Each such star costs exactly one extra
// aggregation scan in Schedule: one of its starred
// components is aggregated into a bare representative table, after which
// the star satisfies the local 1scan condition. This matches Ex. V.11:
// (Cust*(Ord*Item*)*)* has two such stars and needs 2+1 = 3 scans.
func countBadStars(s Sig) int {
	switch x := s.(type) {
	case Table:
		return 0
	case Star:
		n := countBadStars(x.Inner)
		if !hasBareTable(x.Inner) {
			n++
		}
		return n
	case Concat:
		n := 0
		for _, c := range x {
			n += countBadStars(c)
		}
		return n
	default:
		return 0
	}
}

// MinimalCover returns the signature of the minimal subexpression of s that
// contains all the given tables (Def. III.3). ok is false when some table
// does not occur in s.
func MinimalCover(s Sig, tables []string) (Sig, bool) {
	need := make(map[string]bool, len(tables))
	for _, t := range tables {
		need[t] = true
	}
	present := make(map[string]bool)
	for _, t := range Tables(s) {
		present[t] = true
	}
	for t := range need {
		if !present[t] {
			return nil, false
		}
	}
	return minimalCover(s, need), true
}

// minimalCover finds the smallest *subtree node* containing all needed
// tables; called only when s contains them all. Subtree nodes are starred
// subexpressions, bare tables, and direct concatenation components — a
// star's inner concatenation is the node's child list, not a node, so a
// cover like (Ord*Item*)* keeps its star (Ex. III.4).
func minimalCover(s Sig, need map[string]bool) Sig {
	children := func(s Sig) []Sig {
		switch x := s.(type) {
		case Star:
			// A starred leaf (R*) is a single tree node: do not peel the
			// star off a lone table. Only a starred inner node exposes its
			// concatenation components as child subtrees.
			if c, ok := x.Inner.(Concat); ok {
				return c
			}
			return nil
		case Concat:
			return x
		default:
			return nil
		}
	}
	for _, c := range children(s) {
		if containsAll(c, need) {
			return minimalCover(c, need)
		}
	}
	return s
}

func containsAll(s Sig, need map[string]bool) bool {
	have := make(map[string]bool)
	for _, t := range Tables(s) {
		have[t] = true
	}
	for t := range need {
		if !have[t] {
			return false
		}
	}
	return true
}
