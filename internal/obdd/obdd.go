// Package obdd compiles DNF lineage into reduced ordered binary decision
// diagrams (OBDDs) and evaluates their probability — the middle tier of the
// engine's confidence ladder, between SPROUT's signature-driven sort+scan
// operator (exact, but only for queries with a hierarchical signature) and
// the (ε, δ) Monte Carlo estimators of internal/prob (always applicable,
// but only probabilistically accurate).
//
// The approach follows the companion line of work by the same authors
// (Olteanu and Huang, "Using OBDDs for Efficient Query Evaluation on
// Probabilistic Databases"): compile the per-answer lineage formula into a
// reduced OBDD by Shannon expansion under a fixed variable order, then
// compute the exact probability in one bottom-up pass over the diagram —
// each node contributes (1-p)·Pr[lo] + p·Pr[hi], where p is the marginal of
// the node's decision variable. Whenever the diagram stays small (tractable
// lineage under a good order — e.g. read-once formulas, and in particular
// all hierarchical-query lineage under a signature-derived order) this
// yields exact confidences for queries the sort+scan operator must reject.
//
// When the diagram does not stay small — compilation is #P-hard in general,
// so the node budget must give out somewhere — the package switches to an
// anytime mode (bounds.go): partial Shannon expansion maintains certified
// deterministic bounds [lo, hi] on the probability that tighten
// monotonically with every expansion step, terminating early once the
// interval reaches a target width or the step budget is spent.
//
// Compilation is allocation-lean: residual clause sets are interned in the
// shared clause-set store (internal/clauseset: FNV-keyed memo, header arena,
// scratch free list — the same store the d-tree tier uses), keyed here to
// diagram nodes, and a Builder is reusable across formulas — Reset keeps the
// capacity of the unique and apply tables and of the store, so batch
// fan-outs (conf's per-answer driver: one builder per worker, reset per
// answer) pay the map allocations once instead of per lineage formula. What
// stays in this package is what only an ordered diagram needs: the variable
// order (OccurrenceOrder), the unique/apply tables, and the anytime Bounds
// expansion. Options and Result are the compilers' shared contract,
// aliased from clauseset.
package obdd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/clauseset"
	"repro/internal/prob"
)

// Ref names a node of a Builder's diagram: one of the terminals False and
// True, or an internal decision node.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// Node is an internal decision node branching on the variable at Level of
// the builder's order: Lo is the cofactor under "false", Hi under "true".
// Reduction invariants: Lo ≠ Hi (no redundant tests) and every (Level, Lo,
// Hi) triple exists at most once (hash-consing) — so equal Refs mean equal
// Boolean functions.
type Node struct {
	Level  int32
	Lo, Hi Ref
}

// ErrBudget is returned when building a diagram would exceed the node
// budget; callers switch to the anytime bound mode (Bounds) on it.
var ErrBudget = errors.New("obdd: node budget exceeded")

// terminalLevel orders terminals below every variable level.
const terminalLevel = int32(math.MaxInt32)

// Builder is an OBDD manager: a variable order plus the hash-consing unique
// table and memoization caches shared by every diagram built with it. A
// Builder is reusable: Reset re-arms it for a new order and budget while
// keeping the capacity of its tables and scratch buffers, so a batch of
// per-answer compilations (conf's OBDD fan-out) pays the map and slice
// allocations once per worker instead of once per answer.
type Builder struct {
	order  []prob.Var
	level  map[prob.Var]int32
	nodes  []Node // Ref(i+2) is nodes[i]; children always precede parents
	unique map[Node]Ref
	apply  map[applyKey]Ref
	budget int

	// memo interns the residual clause sets of Shannon compilation
	// (compile.go) and owns the cofactor header arena and free list.
	memo clauseset.Store[Ref]
	pr   []float64 // Prob's bottom-up pass scratch

	// stop is armed by ProbWith from Options.Stop for the duration of one
	// Compile: when it fires, the compile aborts with ErrBudget and the
	// caller falls into the anytime bounds mode.
	stop func() bool
}

type applyKey struct {
	op   byte // '|' or '&'
	a, b Ref
}

// NewBuilder creates a manager over the given variable order (level 0 is
// tested first). budget caps the number of internal nodes; 0 means
// DefaultNodeBudget. A zero Builder is equally usable after Reset.
func NewBuilder(order []prob.Var, budget int) *Builder {
	b := new(Builder)
	b.Reset(order, budget)
	return b
}

// Reset re-arms the builder for a fresh diagram over a new variable order
// and budget: every table is cleared but keeps its storage. Any Refs
// obtained before the Reset are invalidated.
func (b *Builder) Reset(order []prob.Var, budget int) {
	if budget <= 0 {
		budget = DefaultNodeBudget
	}
	if b.level == nil {
		b.level = make(map[prob.Var]int32, len(order))
		b.unique = make(map[Node]Ref)
		b.apply = make(map[applyKey]Ref)
	}
	b.order = order
	b.budget = budget
	b.nodes = b.nodes[:0]
	clear(b.level)
	clear(b.unique)
	clear(b.apply)
	b.memo.Reset()
	for i, v := range order {
		b.level[v] = int32(i)
	}
}

// Size returns the number of internal nodes allocated so far.
func (b *Builder) Size() int { return len(b.nodes) }

// Order returns the builder's variable order.
func (b *Builder) Order() []prob.Var { return b.order }

// mk returns the unique reduced node (level, lo, hi), eliminating redundant
// tests and reusing structurally identical nodes via the unique table.
func (b *Builder) mk(level int32, lo, hi Ref) (Ref, error) {
	if lo == hi {
		return lo, nil
	}
	n := Node{Level: level, Lo: lo, Hi: hi}
	if r, ok := b.unique[n]; ok {
		return r, nil
	}
	if len(b.nodes) >= b.budget {
		return False, ErrBudget
	}
	r := Ref(len(b.nodes) + 2)
	b.nodes = append(b.nodes, n)
	b.unique[n] = r
	return r, nil
}

// node returns the decision node behind an internal ref.
func (b *Builder) node(r Ref) Node { return b.nodes[r-2] }

func (b *Builder) levelOf(r Ref) int32 {
	if r == False || r == True {
		return terminalLevel
	}
	return b.node(r).Level
}

// cofactors returns the two cofactors of r with respect to the variable at
// level: r itself when r does not test that level (ordered diagrams test
// levels increasingly, so a deeper root is constant in it).
func (b *Builder) cofactors(r Ref, level int32) (lo, hi Ref) {
	if b.levelOf(r) != level {
		return r, r
	}
	n := b.node(r)
	return n.Lo, n.Hi
}

// Var returns a diagram for a single variable. The variable must belong to
// the builder's order.
func (b *Builder) Var(v prob.Var) (Ref, error) {
	lv, ok := b.level[v]
	if !ok {
		return False, fmt.Errorf("obdd: variable %v not in order", v)
	}
	return b.mk(lv, False, True)
}

// Or returns the disjunction of two diagrams.
func (b *Builder) Or(x, y Ref) (Ref, error) { return b.apply2('|', x, y) }

// And returns the conjunction of two diagrams.
func (b *Builder) And(x, y Ref) (Ref, error) { return b.apply2('&', x, y) }

// apply2 is the classic memoized apply: recurse on the topmost tested level
// of either operand, combine terminal cases directly. The memo key is
// normalized (both operations are commutative), so x∨y and y∨x share one
// entry.
func (b *Builder) apply2(op byte, x, y Ref) (Ref, error) {
	switch op {
	case '|':
		if x == True || y == True {
			return True, nil
		}
		if x == False {
			return y, nil
		}
		if y == False || x == y {
			return x, nil
		}
	case '&':
		if x == False || y == False {
			return False, nil
		}
		if x == True {
			return y, nil
		}
		if y == True || x == y {
			return x, nil
		}
	}
	if y < x {
		x, y = y, x
	}
	k := applyKey{op: op, a: x, b: y}
	if r, ok := b.apply[k]; ok {
		return r, nil
	}
	level := b.levelOf(x)
	if yl := b.levelOf(y); yl < level {
		level = yl
	}
	x0, x1 := b.cofactors(x, level)
	y0, y1 := b.cofactors(y, level)
	lo, err := b.apply2(op, x0, y0)
	if err != nil {
		return False, err
	}
	hi, err := b.apply2(op, x1, y1)
	if err != nil {
		return False, err
	}
	r, err := b.mk(level, lo, hi)
	if err != nil {
		return False, err
	}
	b.apply[k] = r
	return r, nil
}

// Restrict returns the cofactor of r under v := val, memoized per call.
func (b *Builder) Restrict(r Ref, v prob.Var, val bool) (Ref, error) {
	lv, ok := b.level[v]
	if !ok {
		return r, nil // r never tests v
	}
	memo := make(map[Ref]Ref)
	return b.restrict(r, lv, val, memo)
}

func (b *Builder) restrict(r Ref, lv int32, val bool, memo map[Ref]Ref) (Ref, error) {
	rl := b.levelOf(r)
	if rl > lv {
		return r, nil // ordered: nothing at or below r tests lv
	}
	if rl == lv {
		n := b.node(r)
		if val {
			return n.Hi, nil
		}
		return n.Lo, nil
	}
	if out, ok := memo[r]; ok {
		return out, nil
	}
	n := b.node(r)
	lo, err := b.restrict(n.Lo, lv, val, memo)
	if err != nil {
		return False, err
	}
	hi, err := b.restrict(n.Hi, lv, val, memo)
	if err != nil {
		return False, err
	}
	out, err := b.mk(n.Level, lo, hi)
	if err != nil {
		return False, err
	}
	memo[r] = out
	return out, nil
}

// Prob computes Pr[root] in one bottom-up pass over the node array: nodes
// are created children-first, so a single forward sweep has every child's
// probability ready when its parent is reached (linear in diagram size —
// the whole point of compiling to an OBDD).
func (b *Builder) Prob(root Ref, a *prob.Assignment) float64 {
	if root == False {
		return 0
	}
	if root == True {
		return 1
	}
	need := len(b.nodes) + 2
	if cap(b.pr) < need {
		b.pr = make([]float64, need)
	}
	pr := b.pr[:need]
	pr[False] = 0
	pr[True] = 1
	for i, n := range b.nodes {
		p := a.P(b.order[n.Level])
		pr[i+2] = (1-p)*pr[n.Lo] + p*pr[n.Hi]
	}
	return pr[root]
}

// Eval evaluates the diagram under a truth assignment (test oracle).
func (b *Builder) Eval(r Ref, truth map[prob.Var]bool) bool {
	for r != False && r != True {
		n := b.node(r)
		if truth[b.order[n.Level]] {
			r = n.Hi
		} else {
			r = n.Lo
		}
	}
	return r == True
}
