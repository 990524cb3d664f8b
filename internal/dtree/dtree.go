// Package dtree compiles DNF lineage by decomposition trees (d-trees) — the
// order-free exact tier between OBDD compilation (internal/obdd, exact only
// while the diagram fits a node budget under one fixed variable order) and
// Monte Carlo estimation (internal/prob). It follows the SPROUT authors'
// follow-on work on approximate confidence computation: instead of fixing a
// global variable order up front, each residual formula is decomposed by
// whichever structural rule applies, and variable branching is a last
// resort.
//
// Three decomposition rules are tried in order on every residual clause set
// ψ (a positive DNF):
//
//  1. Independent-AND: variables occurring in *every* clause factor out —
//     Pr[ψ] = Π_{v∈common} p(v) · Pr[ψ'] where ψ' strips the common
//     variables from each clause. (A clause consisting only of common
//     variables makes ψ' ≡ ⊤, so Pr[ψ] is the plain product.)
//  2. Independent-OR: if the clauses partition into variable-disjoint
//     components ψ = ψ₁ ∨ … ∨ ψ_k (connected components of the
//     clause-variable graph), the disjuncts are independent events —
//     Pr[ψ] = 1 - Π_i (1 - Pr[ψ_i]).
//  3. Exclusive-OR by Shannon cofactoring: when neither independence rule
//     applies, split on the most frequent variable x (ties to the lowest
//     id). The two branches {x ∧ ψ|_x, ¬x ∧ ψ|_{¬x}} are mutually
//     exclusive — on positive DNF this variable split is exactly how
//     exclusive-OR decomposition manifests — so
//     Pr[ψ] = p(x)·Pr[ψ|_x] + (1-p(x))·Pr[ψ|_{¬x}].
//
// Worked example: ψ = x₁y₁ ∨ x₁y₂ ∨ x₂y₂ ∨ ab. Independent-OR splits off
// the component {ab} (disjoint variables), which independent-AND collapses
// to p(a)p(b). The remaining component shares y₂ across two clauses but no
// variable across all three, so rule 3 splits on x₁ (most frequent): the
// positive cofactor y₁ ∨ y₂ ∨ x₂y₂ and the negative cofactor x₂y₂ both
// decompose by the independence rules alone. No global variable order was
// ever chosen — which is why lineage whose OBDD explodes under every
// occurrence-derived order (e.g. many variable-disjoint blocks whose ids
// interleave) still compiles exactly here: rule 2 splits the blocks apart
// before any branching happens.
//
// Budgeted compilation: every applied decomposition rule counts one step
// against Options.NodeBudget. When the budget is exhausted, the remaining
// residuals are closed with the cheap clause-weight bounds
//
//	max_c Π_{v∈c} p(v)  ≤  Pr[ψ]  ≤  min(1, Σ_c Π_{v∈c} p(v))
//
// and the bounds combine monotonically through every rule on the way back
// up, yielding a certified deterministic interval [Lo, Hi] ∋ Pr[φ] (the
// same reporting surface as the OBDD tier). Each rule tightens: the
// combined children's cheap bounds always nest inside the parent's, so a
// larger budget never loosens the interval, and the depth-first expansion
// order is a function of the formula alone, so results are deterministic.
//
// Exactly resolved residuals are interned in the shared clause-set store
// (internal/clauseset: FNV-keyed memo, header arena, scratch free list — the
// same store the OBDD tier uses), keyed here to probabilities, and a Builder
// is reusable across formulas via Reset — batch fan-outs (conf's per-answer
// driver) pay the map allocations once per worker instead of once per
// answer. What stays in this package is what only decomposition needs: the
// three rules, component discovery, and the literal arena stripped clauses
// are rebuilt into. Options and Result are the compilers' shared contract,
// aliased from clauseset.
package dtree

import (
	"slices"

	"repro/internal/clauseset"
	"repro/internal/prob"
)

// Options, Result and DefaultNodeBudget are the lineage compilers' shared
// contract (internal/clauseset); NodeBudget counts decomposition steps here.
type (
	Options = clauseset.Options
	Result  = clauseset.Result
)

// DefaultNodeBudget caps the number of decomposition steps when
// Options.NodeBudget is zero.
const DefaultNodeBudget = clauseset.DefaultNodeBudget

// Builder holds the reusable state of d-tree compilation: the interned
// exact-residual memo, the clause-header arena with its scratch free list,
// and the literal arena stripped clauses are rebuilt into. A Builder is
// reusable across formulas via Reset; because the memo caches probabilities,
// it is bound to one (formula, assignment) pair per Reset.
type Builder struct {
	budget int
	steps  int
	a      *prob.Assignment

	// stop/stopped: the deadline probe armed by probWith from
	// Options.Stop, and its latched outcome for the current pass.
	stop    func() bool
	stopped bool

	// memo interns exactly resolved residuals and owns the clause-header
	// arena and free list; lits is the arena stripped clauses are rebuilt
	// into.
	memo clauseset.Store[float64]
	lits []int32

	count map[int32]int // Shannon variable-frequency scratch
}

// NewBuilder creates a builder with the given step budget (0 means
// DefaultNodeBudget). A zero Builder is equally usable after Reset.
func NewBuilder(budget int) *Builder {
	b := new(Builder)
	b.Reset(budget)
	return b
}

// Reset re-arms the builder for a new formula and budget: the memo is
// cleared but keeps its storage, like obdd.Builder.Reset, so per-worker
// builders in a batch fan-out pay the map allocations once.
func (b *Builder) Reset(budget int) {
	if budget <= 0 {
		budget = DefaultNodeBudget
	}
	if b.count == nil {
		b.count = make(map[int32]int)
	}
	b.budget = budget
	b.steps = 0
	b.a = nil
	b.memo.Reset()
}

// Steps returns the decomposition steps applied since the last Reset.
func (b *Builder) Steps() int { return b.steps }

// stopFired polls the armed Stop probe, latching the outcome so one firing
// degrades every remaining residual of the pass.
func (b *Builder) stopFired() bool {
	if b.stopped {
		return true
	}
	if b.stop != nil && b.stop() {
		b.stopped = true
		return true
	}
	return false
}

// Prob computes Pr[d] by d-tree decomposition: exact when the formula
// decomposes within the step budget, certified [lo, hi] bounds otherwise.
// The result is a deterministic function of (d, a, o) — no variable order
// is involved.
func Prob(d *prob.DNF, a *prob.Assignment, o Options) Result {
	return ProbWith(NewBuilder(o.Budget()), d, a, o)
}

// ProbWith is Prob over a caller-supplied builder (NewBuilder or Reset),
// which exists so a batch of per-answer compilations can reuse one
// builder's memo and arenas across answers (Reset between them); the result
// is identical to Prob's. The builder is left holding the last formula's
// memo — Reset before reuse.
func ProbWith(b *Builder, d *prob.DNF, a *prob.Assignment, o Options) Result {
	hits0, misses0, rec0 := b.memo.Counters()
	res := b.probWith(d, a, o)
	hits, misses, rec := b.memo.Counters()
	res.MemoHits, res.MemoMisses, res.HdrRecycled = hits-hits0, misses-misses0, rec-rec0
	return res
}

func (b *Builder) probWith(d *prob.DNF, a *prob.Assignment, o Options) Result {
	b.a = a
	b.stop = o.Stop
	b.stopped = false
	defer func() { b.stop = nil }()
	budget := o.Budget()
	if o.TargetWidth <= 0 {
		return b.run(d, budget)
	}
	// Anytime mode: geometrically growing passes, stopping at the first
	// whose interval is narrow enough. Exact residuals memoized by an
	// earlier pass are free in later ones, so the repeated prefix work is
	// cheap; Nodes accumulates the total effort.
	total := 0
	for pass := 1 << 10; ; pass *= 4 {
		if pass >= budget {
			res := b.run(d, budget)
			res.Nodes += total
			return res
		}
		res := b.run(d, pass)
		res.Nodes += total
		if res.Exact || res.Hi-res.Lo <= o.TargetWidth || res.Stopped {
			return res
		}
		total = res.Nodes
	}
}

// run performs one compilation pass under the given step budget.
func (b *Builder) run(d *prob.DNF, budget int) Result {
	b.budget = budget
	b.steps = 0
	lo, hi := b.node(b.lower(d))
	res := Result{Lo: lo, Hi: hi, Nodes: b.steps, Stopped: b.stopped && lo != hi}
	if lo == hi {
		res.Exact = true
		res.P = lo
	} else {
		res.P = (lo + hi) / 2
	}
	return res
}

// lower rewrites the DNF as a canonical clause set: valid variables only,
// each clause ascending (prob.Clause's invariant), clauses sorted
// lexicographically and deduplicated. The clause-set header comes from the
// builder's arena; literal storage aliases the input clauses (never
// mutated).
func (b *Builder) lower(d *prob.DNF) [][]int32 {
	cls := b.memo.Scratch(len(d.Clauses))
	for _, c := range d.Clauses {
		valid := 0
		for _, v := range c {
			if v.Valid() {
				valid++
			}
		}
		lc := b.allocLits(valid)
		for _, v := range c {
			if v.Valid() {
				lc = append(lc, int32(v))
			}
		}
		cls = append(cls, lc)
	}
	return clauseset.Normalize(cls)
}

// p returns the marginal of a variable (by raw id).
func (b *Builder) p(v int32) float64 { return b.a.P(prob.Var(v)) }

// weight is Π p over a clause's variables — the probability that one clause
// is true on its own.
func (b *Builder) weight(c []int32) float64 {
	w := 1.0
	for _, v := range c {
		w *= b.p(v)
	}
	return w
}

// node resolves one residual clause set to certified bounds (lo == hi means
// exact). It takes ownership of the cls header: terminals, memo hits and
// budget stops recycle it; exactly resolved sets retain it in the memo.
func (b *Builder) node(cls [][]int32) (lo, hi float64) {
	if len(cls) == 0 {
		b.memo.Recycle(cls)
		return 0, 0
	}
	for _, c := range cls {
		if len(c) == 0 {
			b.memo.Recycle(cls)
			return 1, 1
		}
	}
	if len(cls) == 1 {
		w := b.weight(cls[0])
		b.memo.Recycle(cls)
		return w, w
	}
	h := clauseset.Hash(cls)
	if p, ok := b.memo.Get(h, cls); ok {
		b.memo.Recycle(cls)
		return p, p
	}
	if b.steps >= b.budget || b.stopFired() {
		// Out of budget: close the residual with the clause-weight bound.
		var wb prob.WeightBound
		for _, c := range cls {
			wb.Add(b.weight(c))
		}
		b.memo.Recycle(cls)
		return wb.Interval()
	}
	b.steps++
	lo, hi = b.decompose(cls)
	if lo == hi {
		b.memo.Put(h, cls, lo) // retains the header
	} else {
		b.memo.Recycle(cls)
	}
	return lo, hi
}

// decompose applies the first matching decomposition rule:
// independent-AND, independent-OR, then the exclusive-OR variable split.
func (b *Builder) decompose(cls [][]int32) (lo, hi float64) {
	// Rule 1: independent-AND — factor out the variables common to every
	// clause.
	if common := commonVars(cls); len(common) > 0 {
		w := 1.0
		for _, v := range common {
			w *= b.p(v)
		}
		res, resTrue := b.stripAll(cls, common)
		if resTrue {
			return w, w
		}
		lo, hi = b.node(res)
		return w * lo, w * hi
	}
	// Rule 2: independent-OR — variable-disjoint components are
	// independent events.
	if comps := b.components(cls); comps != nil {
		cl, ch := 1.0, 1.0
		for _, comp := range comps {
			lo, hi = b.node(comp)
			cl *= 1 - lo
			ch *= 1 - hi
		}
		return 1 - cl, 1 - ch
	}
	// Rule 3: exclusive-OR via Shannon cofactoring on the most frequent
	// variable.
	v := b.pickVar(cls)
	p := b.p(v)
	pos, posTrue := b.cofactorPos(cls, v)
	l1, h1 := 1.0, 1.0
	if !posTrue {
		l1, h1 = b.node(pos)
	}
	l0, h0 := b.node(b.cofactorNeg(cls, v))
	return p*l1 + (1-p)*l0, p*h1 + (1-p)*h0
}

// commonVars returns the variables present in every clause (ascending).
// Clauses are sorted variable lists, so a running intersection suffices.
func commonVars(cls [][]int32) []int32 {
	common := cls[0]
	for _, c := range cls[1:] {
		if len(common) == 0 {
			return nil
		}
		common = intersect(common, c)
	}
	return common
}

// intersect intersects two ascending lists; allocation happens only while
// matches survive (commonVars short-circuits once the intersection empties,
// which is the overwhelmingly common outcome).
func intersect(a, c []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(c) {
		switch {
		case a[i] == c[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < c[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// stripAll removes the common variables from every clause (they are present
// in each by construction). resTrue reports that some clause consisted only
// of common variables — the residual is ⊤.
func (b *Builder) stripAll(cls [][]int32, common []int32) (res [][]int32, resTrue bool) {
	res = b.memo.Scratch(len(cls))
	for _, c := range cls {
		if len(c) == len(common) {
			b.memo.Recycle(res)
			return nil, true
		}
		nc := b.allocLits(len(c) - len(common))
		j := 0
		for _, v := range c {
			if j < len(common) && common[j] == v {
				j++
				continue
			}
			nc = append(nc, v)
		}
		res = append(res, nc)
	}
	return clauseset.Normalize(res), false
}

// components partitions the clause set into variable-disjoint connected
// components via union-find over clause indexes. It returns nil when the
// set is connected (rule does not apply); otherwise one header per
// component, components ordered by their smallest clause index and clauses
// in their original (canonical) order — fully deterministic.
func (b *Builder) components(cls [][]int32) [][][]int32 {
	parent := make([]int, len(cls))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	clear(b.count) // reused as the variable → first-owning-clause map
	owner := b.count
	for i, c := range cls {
		for _, v := range c {
			if o, ok := owner[v]; ok {
				ri, ro := find(i), find(o)
				if ri != ro {
					parent[ri] = ro
				}
			} else {
				owner[v] = i
			}
		}
	}
	roots := make(map[int]int) // root → component position
	n := 0
	for i := range cls {
		r := find(i)
		if _, ok := roots[r]; !ok {
			roots[r] = n
			n++
		}
	}
	if n <= 1 {
		return nil
	}
	comps := make([][][]int32, n)
	for i := range comps {
		comps[i] = b.memo.Scratch(len(cls))
	}
	for i, c := range cls {
		k := roots[find(i)]
		comps[k] = append(comps[k], c)
	}
	return comps
}

// pickVar returns the most frequent variable, ties broken by the lowest id
// — the same branching heuristic as prob.DNF's Shannon oracle.
func (b *Builder) pickVar(cls [][]int32) int32 {
	clear(b.count)
	for _, c := range cls {
		for _, v := range c {
			b.count[v]++
		}
	}
	var best int32
	bestN := -1
	for v, n := range b.count {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// cofactorPos builds ψ|_v: clauses containing v lose it, the rest pass
// through; posTrue short-circuits when a clause becomes empty.
func (b *Builder) cofactorPos(cls [][]int32, v int32) (pos [][]int32, posTrue bool) {
	pos = b.memo.Scratch(len(cls))
	for _, c := range cls {
		if i, ok := slices.BinarySearch(c, v); ok {
			if len(c) == 1 {
				b.memo.Recycle(pos)
				return nil, true
			}
			nc := b.allocLits(len(c) - 1)
			nc = append(nc, c[:i]...)
			nc = append(nc, c[i+1:]...)
			pos = append(pos, nc)
		} else {
			pos = append(pos, c)
		}
	}
	return clauseset.Normalize(pos), false
}

// cofactorNeg builds ψ|_{¬v}: clauses containing v vanish.
func (b *Builder) cofactorNeg(cls [][]int32, v int32) [][]int32 {
	neg := b.memo.Scratch(len(cls))
	for _, c := range cls {
		if _, ok := slices.BinarySearch(c, v); !ok {
			neg = append(neg, c)
		}
	}
	return neg // subsequence of a canonical set: already canonical
}

// litArenaBlock is how many literal slots the literal arena allocates per
// backing array.
const litArenaBlock = 8192

// allocLits carves literal storage for one rebuilt clause from the literal
// arena (never recycled within a formula: stripped clauses may be retained
// by the memo).
func (b *Builder) allocLits(n int) []int32 {
	if len(b.lits) < n {
		size := litArenaBlock
		if n > size {
			size = n
		}
		b.lits = make([]int32, size)
	}
	s := b.lits[:0:n]
	b.lits = b.lits[n:]
	return s
}
