// Package prob implements the probabilistic foundation of SPROUT:
// independent Boolean random variables, probability arithmetic over
// independent events, DNF lineage formulas, and exact probability oracles
// (Shannon expansion and possible-world enumeration) (paper §II.A, §III).
//
// For formulas outside the exactly tractable fragment the package provides
// Monte Carlo estimation (mc.go, karpluby.go): a naive possible-worlds
// estimator and the Karp–Luby importance estimator behind a single (ε, δ)
// interface, plus a partition-parallel driver that estimates a batch of
// per-answer formulas on a worker pool with deterministic per-formula
// seeding. Both estimators count over one world-drawing kernel that holds
// 64 possible worlds per machine word: a block is one uint64 per variable,
// each drawn by a bit-sliced compare of 64 uniform lanes against the
// variable's marginal as a 64-bit threshold (≈ 7–8 words of a value-type
// math/rand/v2.PCG per variable and block, exact to the threshold's 64
// bits); clauses are ANDs of words, the naive count a popcount. Stop and
// the context are polled every cancelCheckInterval samples.
package prob

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/freelist"
)

// Var identifies an independent Boolean random variable. The paper (§II.A)
// draws variables from a finite set X; we represent them as small integers,
// exactly like SPROUT's integer-encoded variable columns (§V).
//
// Var 0 is reserved as "no variable" (a deterministic, always-true tuple).
type Var int32

// NoVar marks tuples without an associated random variable; such tuples are
// present in every possible world with probability 1.
const NoVar Var = 0

// Valid reports whether v names an actual random variable.
func (v Var) Valid() bool { return v > 0 }

// String renders a variable as x<id>, matching the paper's notation.
func (v Var) String() string {
	if v == NoVar {
		return "⊤"
	}
	return fmt.Sprintf("x%d", int32(v))
}

// Assignment maps variables to probabilities of their "true" assignment.
// Probabilities must lie in (0, 1] per the data model of §II.A.
//
// Variable ids are usually dense (tpch numbers them 1..N), so the marginals
// live in a slice indexed by Var, 0 marking an unset id — no valid marginal
// is 0. Ids are the caller's choice (ProbTable.AddRow), though, so the
// density is judged from what has been set: a new id beyond 8·Len() +
// denseSlack, and beyond what the slice holds without growing (Draw hands
// an assignment the slice an earlier one grew to), moves every entry into
// a map, and the map goes back to a slice once the largest id is within
// 4·Len() + denseSlack — a handful of huge ids
// cannot cost a huge slice, a stream whose first ids happen to be large
// still ends dense, and each switch needs Len() to double since the last,
// so switching costs amortized O(1) per Set. Alongside each marginal the
// assignment keeps the origin SetFrom recorded (conf: which source table's
// V column carried the variable), in the same storage.
type Assignment struct {
	p      []float64 // Pr[v = true] at index v while dense; 0 = unset
	from   []int32   // SetFrom's origin + 1 at index v (0 = none); grown only by SetFrom
	sparse map[Var]marginal
	n      int // assigned variables
	max    Var // largest assigned id
}

// marginal is one entry of a sparse assignment.
type marginal struct {
	p    float64
	from int32 // origin + 1, 0 = none
}

// denseSlack is the id range an assignment indexes densely however few
// variables it holds.
const denseSlack = 1024

// NewAssignment returns an empty probability assignment.
func NewAssignment() *Assignment {
	return &Assignment{}
}

// Set records Pr[v = true] = p. It returns an error if p is outside (0, 1]
// or v is invalid, mirroring the schema constraint on P-columns.
func (a *Assignment) Set(v Var, p float64) error {
	return a.set(v, p, 0)
}

// SetFrom is Set that also records from (≥ 0), a small index the caller
// gives v's origin; From reads it back.
func (a *Assignment) SetFrom(v Var, p float64, from int32) error {
	return a.set(v, p, from+1)
}

func (a *Assignment) set(v Var, p float64, from int32) error {
	if !v.Valid() {
		return fmt.Errorf("prob: cannot assign probability to reserved variable %v", v)
	}
	if !(p > 0 && p <= 1) || math.IsNaN(p) {
		return fmt.Errorf("prob: probability %g for %v outside (0,1]", p, v)
	}
	a.max = max(a.max, v)
	if a.sparse == nil && int(v) >= cap(a.p) && int(v) > 8*a.n+denseSlack {
		a.toSparse()
	}
	if a.sparse != nil {
		if _, ok := a.sparse[v]; !ok {
			a.n++
		}
		a.sparse[v] = marginal{p, from}
		if int(a.max) <= 4*a.n+denseSlack {
			a.toDense()
		}
		return nil
	}
	if int(v) >= len(a.p) {
		a.p = growTo(a.p, int(v)+1)
	}
	if a.p[v] == 0 {
		a.n++
	}
	a.p[v] = p
	if from != 0 || int(v) < len(a.from) {
		if int(v) >= len(a.from) {
			a.from = growTo(a.from, int(v)+1)
		}
		a.from[v] = from
	}
	return nil
}

// growTo extends s with zeros to length n, at least doubling its capacity
// when it reallocates: append's 1.25× steps for large slices would copy a
// slice that grows id by id five times over.
func growTo[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*cap(s))-len(s))
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

// toSparse moves the slice's entries into the map.
func (a *Assignment) toSparse() {
	a.sparse = make(map[Var]marginal, a.n+1)
	for v, p := range a.p {
		if p != 0 {
			a.sparse[Var(v)] = marginal{p, a.fromAt(Var(v))}
		}
	}
	a.p, a.from = nil, nil
}

// toDense moves the map's entries into a slice over 0..max.
func (a *Assignment) toDense() {
	a.p = make([]float64, a.max+1)
	for v, m := range a.sparse {
		a.p[v] = m.p
		if m.from != 0 {
			if a.from == nil {
				a.from = make([]int32, a.max+1)
			}
			a.from[v] = m.from
		}
	}
	a.sparse = nil
}

func (a *Assignment) fromAt(v Var) int32 {
	if int(v) < len(a.from) {
		return a.from[v]
	}
	return 0
}

// Draw gives an empty assignment dense arrays off the engine's free list
// (internal/freelist): the largest idle marginal array and an origin array
// to match, so that every id within their capacity is set densely, with
// no detour through the map, and grows nothing.
func (a *Assignment) Draw(ls *freelist.Lease) {
	a.p, _ = freelist.Float64s.Largest(ls)
	if c := cap(a.p); c > 0 {
		a.from = freelist.Int32s.Draw(ls, 4*int64(c))
	}
}

// Recycle gives the dense arrays back to the free list, leaving the
// assignment empty; a second Recycle finds nothing.
func (a *Assignment) Recycle(ls *freelist.Lease) {
	freelist.Float64s.Put(ls, a.p)
	freelist.Int32s.Put(ls, a.from)
	*a = Assignment{}
}

// MustSet is Set for test fixtures; it panics on invalid input.
func (a *Assignment) MustSet(v Var, p float64) {
	if err := a.Set(v, p); err != nil {
		panic(err)
	}
}

// P returns Pr[v = true]. Unassigned variables default to 1 (deterministic),
// and NoVar is always 1.
func (a *Assignment) P(v Var) float64 {
	if p, ok := a.Lookup(v); ok {
		return p
	}
	return 1
}

// Lookup returns Pr[v = true] and whether v has been assigned — P without
// the default, for callers that must tell a first sighting from a repeat.
func (a *Assignment) Lookup(v Var) (float64, bool) {
	if a.sparse != nil {
		m, ok := a.sparse[v]
		return m.p, ok
	}
	if v > 0 && int(v) < len(a.p) && a.p[v] != 0 {
		return a.p[v], true
	}
	return 0, false
}

// From returns the origin SetFrom recorded for v, or -1 when v is unset or
// was assigned by Set.
func (a *Assignment) From(v Var) int32 {
	if a.sparse != nil {
		return a.sparse[v].from - 1
	}
	if v > 0 {
		return a.fromAt(v) - 1
	}
	return -1
}

// Vars returns the assigned variables in increasing order.
func (a *Assignment) Vars() []Var {
	vs := make([]Var, 0, a.n)
	if a.sparse != nil {
		for v := range a.sparse {
			vs = append(vs, v)
		}
		slices.Sort(vs)
		return vs
	}
	for v, p := range a.p {
		if p != 0 {
			vs = append(vs, Var(v))
		}
	}
	return vs
}

// Len returns the number of assigned variables.
func (a *Assignment) Len() int { return a.n }

// Or computes the probability of the disjunction of two independent events
// with probabilities p and q: 1 - (1-p)(1-q). This is the `prob` aggregate
// of the paper's Fig. 5 applied pairwise.
func Or(p, q float64) float64 { return 1 - (1-p)*(1-q) }

// OrAll folds Or over a slice of independent event probabilities.
func OrAll(ps []float64) float64 {
	c := 1.0
	for _, p := range ps {
		c *= 1 - p
	}
	return 1 - c
}

// And computes the probability of the conjunction of independent events.
func And(p, q float64) float64 { return p * q }

// ApproxEqual reports whether two probabilities agree within eps. Exact
// confidence computation over float64 accumulates rounding; tests use 1e-9.
func ApproxEqual(p, q, eps float64) bool {
	return math.Abs(p-q) <= eps
}
