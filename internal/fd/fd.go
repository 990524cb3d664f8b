// Package fd implements functional dependencies and the query rewriting of
// paper §IV: attribute closure (the chase), key declarations, and the
// FD-reduct (Def. IV.1) that turns (possibly non-Boolean, possibly
// non-hierarchical) conjunctive queries into Boolean queries whose signature
// factors the lineage of the original query. Proposition IV.5 guarantees
// that computing the full closure fixpoint never misses a hierarchical
// rewriting.
package fd

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/query"
)

// FD is a functional dependency LHS → RHS over (globally named) attributes.
// Rel records which relation declared it, for display only: since tuple
// independence makes an FD hold in the database iff it holds in every world
// (§IV), closures chase all FDs regardless of origin.
type FD struct {
	Rel string
	LHS []string
	RHS []string
}

// String renders the dependency in the paper's "Rel: A → B" notation.
func (f FD) String() string {
	prefix := ""
	if f.Rel != "" {
		prefix = f.Rel + ": "
	}
	return prefix + strings.Join(f.LHS, " ") + " → " + strings.Join(f.RHS, " ")
}

// Set is a collection of functional dependencies (the Σ of §IV).
type Set struct {
	FDs []FD
}

// NewSet builds a set from dependencies.
func NewSet(fds ...FD) *Set { return &Set{FDs: fds} }

// Empty reports whether the set has no dependencies.
func (s *Set) Empty() bool { return s == nil || len(s.FDs) == 0 }

// Add appends a dependency.
func (s *Set) Add(f FD) { s.FDs = append(s.FDs, f) }

// AddKey declares key → (other attributes) for a relation, the ubiquitous
// schema knowledge ("okey is a key in Ord") the paper exploits.
func (s *Set) AddKey(rel string, key []string, others []string) {
	var rhs []string
	keySet := make(map[string]bool, len(key))
	for _, k := range key {
		keySet[k] = true
	}
	for _, a := range others {
		if !keySet[a] {
			rhs = append(rhs, a)
		}
	}
	if len(rhs) > 0 {
		s.Add(FD{Rel: rel, LHS: append([]string(nil), key...), RHS: rhs})
	}
}

// Closure computes CLOSUREΣ(attrs): the fixpoint of chasing every FD whose
// LHS is contained in the current set (§IV). The result is sorted.
func (s *Set) Closure(attrs []string) []string {
	cur := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		cur[a] = true
	}
	if s != nil {
		for changed := true; changed; {
			changed = false
			for _, f := range s.FDs {
				applies := true
				for _, l := range f.LHS {
					if !cur[l] {
						applies = false
						break
					}
				}
				if !applies {
					continue
				}
				for _, r := range f.RHS {
					if !cur[r] {
						cur[r] = true
						changed = true
					}
				}
			}
		}
	}
	out := make([]string, 0, len(cur))
	for a := range cur {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// String renders the set.
func (s *Set) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.FDs))
	for i, f := range s.FDs {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// Reduct computes the FD-reduct of q under Σ (Def. IV.1): the Boolean query
// whose i-th relation has attributes CLOSUREΣ(Ai) − CLOSUREΣ(A0). Selections
// are preserved (φ is a conjunction of unary predicates and untouched by the
// rewriting). The reduct's signature factors the DNF associated with each
// bag of duplicates of q.
func Reduct(q *query.Query, sigma *Set) *query.Query {
	headClosure := sigma.Closure(q.Head)
	drop := make(map[string]bool, len(headClosure))
	for _, a := range headClosure {
		drop[a] = true
	}
	out := &query.Query{Name: q.Name + "_fd", Sels: append([]query.Selection(nil), q.Sels...)}
	for _, r := range q.Rels {
		var attrs []string
		for _, a := range sigma.Closure(r.Attrs) {
			if !drop[a] {
				attrs = append(attrs, a)
			}
		}
		out.Rels = append(out.Rels, query.RelRef{Name: r.Name, Base: r.Base, Attrs: attrs})
	}
	return out
}

// HierarchicalReduct computes the FD-reduct and checks it is hierarchical,
// returning the reduct and its tree. By Prop. IV.5, if any chase sequence
// yields a hierarchical query, the fixpoint reduct is hierarchical — so
// this single check is complete.
func HierarchicalReduct(q *query.Query, sigma *Set) (*query.Query, *query.Tree, error) {
	red := Reduct(q, sigma)
	if !red.IsHierarchical() {
		return nil, nil, fmt.Errorf("fd: FD-reduct of %s under %s is not hierarchical", q.Name, sigma)
	}
	tree, err := query.TreeFor(red)
	if err != nil {
		return nil, nil, err
	}
	return red, tree, nil
}
