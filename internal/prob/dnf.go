package prob

import (
	"fmt"
	"slices"
	"strings"
)

// Clause is a conjunction of positive variables: one clause per contributing
// combination of input tuples (paper §I: "the answer to a query on a
// probabilistic database can be represented by a relation pairing possible
// result tuples with propositional formulas ... in the form of a DNF").
// Variables within a clause are kept sorted and deduplicated.
type Clause []Var

// NewClause builds a normalized clause from the given variables, dropping
// NoVar (deterministic tuples) and duplicates.
func NewClause(vs ...Var) Clause {
	c := make(Clause, 0, len(vs))
	for _, v := range vs {
		if v.Valid() {
			c = append(c, v)
		}
	}
	slices.Sort(c)
	out := c[:0]
	var prev Var = -1
	for _, v := range c {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// Contains reports whether the clause mentions v.
func (c Clause) Contains(v Var) bool {
	_, ok := slices.BinarySearch(c, v)
	return ok
}

// String renders the clause as a product of variables, e.g. x1y1z1 -> "x1x2x3"
// style with explicit conjunction.
func (c Clause) String() string {
	if len(c) == 0 {
		return "⊤"
	}
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = v.String()
	}
	return strings.Join(parts, "∧")
}

// DNF is a disjunction of clauses over positive variables — the lineage of
// one distinct answer tuple.
type DNF struct {
	Clauses []Clause
}

// NewDNF builds a DNF from clauses, deduplicating identical clauses.
func NewDNF(clauses ...Clause) *DNF {
	d := &DNF{}
	for _, c := range clauses {
		d.Add(c)
	}
	return d
}

// Add appends a clause unless an identical clause is already present.
func (d *DNF) Add(c Clause) {
	for _, e := range d.Clauses {
		if e.Equal(c) {
			return
		}
	}
	d.Clauses = append(d.Clauses, c)
}

// Equal reports whether two normalized clauses are identical.
func (c Clause) Equal(o Clause) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Vars returns the sorted set of variables mentioned by the formula.
func (d *DNF) Vars() []Var {
	seen := make(map[Var]bool)
	for _, c := range d.Clauses {
		for _, v := range c {
			seen[v] = true
		}
	}
	vs := make([]Var, 0, len(seen))
	for v := range seen {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// String renders the formula in the paper's DNF notation.
func (d *DNF) String() string {
	if len(d.Clauses) == 0 {
		return "⊥"
	}
	parts := make([]string, len(d.Clauses))
	for i, c := range d.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∨ ")
}

// Eval evaluates the formula under a total truth assignment.
func (d *DNF) Eval(truth map[Var]bool) bool {
	for _, c := range d.Clauses {
		ok := true
		for _, v := range c {
			if !truth[v] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// WeightBound folds clause weights w(c) = Π_{v∈c} p(v) into the
// clause-weight bound on a positive DNF ψ:
//
//	max_c w(c)  ≤  Pr[ψ]  ≤  min(1, Σ_c w(c))
//
// (any one clause implies ψ; the union bound caps it). It is the one
// definition behind DNF.CheapBounds and the lineage compilers' residual
// bounds, which differ only in where their clause weights come from.
type WeightBound struct{ lo, sum float64 }

// Add folds in one clause's weight.
func (b *WeightBound) Add(w float64) { b.lo, b.sum = max(b.lo, w), b.sum+w }

// Interval returns the bound over the clauses added so far.
func (b WeightBound) Interval() (lo, hi float64) { return b.lo, min(b.sum, 1) }

// CheapBounds bounds Pr[d] from clause weights alone — no order, no
// compilation, no allocation, one pass over the clauses. The confidence
// layer uses it for answers whose compilation never started before a
// deadline watermark fired: even those answers then carry a certified (if
// wide) interval instead of an error.
func (d *DNF) CheapBounds(a *Assignment) (lo, hi float64) {
	var b WeightBound
	for _, c := range d.Clauses {
		w := 1.0
		for _, v := range c {
			w *= a.P(v)
		}
		b.Add(w)
	}
	return b.Interval()
}

// Prob computes the exact probability of the DNF by Shannon expansion with
// memoization on the residual formula. Computing Pr of an arbitrary DNF is
// #P-complete (§II.A); this oracle is intended for test-sized formulas and
// serves as the ground truth against which the signature-based operator is
// validated.
func (d *DNF) Prob(a *Assignment) float64 {
	if len(d.Clauses) == 0 {
		return 0
	}
	memo := make(map[string]float64)
	return shannon(d.Clauses, a, memo)
}

// shannon picks the most frequent variable, conditions on it, and recurses.
func shannon(clauses []Clause, a *Assignment, memo map[string]float64) float64 {
	if len(clauses) == 0 {
		return 0
	}
	for _, c := range clauses {
		if len(c) == 0 {
			return 1 // empty clause = true
		}
	}
	key := clausesKey(clauses)
	if p, ok := memo[key]; ok {
		return p
	}
	v := pickBranchVar(clauses)
	p := a.P(v)
	pos := condition(clauses, v, true)
	neg := condition(clauses, v, false)
	res := p*shannon(pos, a, memo) + (1-p)*shannon(neg, a, memo)
	memo[key] = res
	return res
}

func clausesKey(clauses []Clause) string {
	var b strings.Builder
	for _, c := range clauses {
		for _, v := range c {
			fmt.Fprintf(&b, "%d,", v)
		}
		b.WriteByte(';')
	}
	return b.String()
}

func pickBranchVar(clauses []Clause) Var {
	count := make(map[Var]int)
	for _, c := range clauses {
		for _, v := range c {
			count[v]++
		}
	}
	var best Var
	bestN := -1
	for v, n := range count {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// condition sets v to the given truth value and simplifies. Clauses
// containing a false literal vanish; true literals are removed.
func condition(clauses []Clause, v Var, val bool) []Clause {
	out := make([]Clause, 0, len(clauses))
	for _, c := range clauses {
		if c.Contains(v) {
			if !val {
				continue // clause is false
			}
			nc := make(Clause, 0, len(c)-1)
			for _, w := range c {
				if w != v {
					nc = append(nc, w)
				}
			}
			if len(nc) == 0 {
				return []Clause{{}} // whole formula is true
			}
			out = append(out, nc)
		} else {
			out = append(out, c)
		}
	}
	return out
}
