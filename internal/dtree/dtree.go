// Package dtree is the engine's one exact lineage compile kernel: a
// memoized expansion of a DNF lineage formula's residual clause sets, with
// certified [lo, hi] bounds once its step budget runs out. It has two
// settings, which differ only in the rules they apply and the variable they
// branch on; the lowering, the residual memo, the budget and Stop
// accounting, the arenas and the Result are shared.
//
//   - The decomposing setting (Prob, ProbWith) is the d-tree tier, after the
//     SPROUT authors' follow-on work on approximate confidence computation:
//     instead of fixing a global variable order up front, each residual is
//     decomposed by whichever structural rule applies, and variable
//     branching is a last resort.
//   - The ordered setting (ProbOrdered, ProbAnytime) is the OBDD tier
//     (internal/obdd derives its variable order): literals are levels of a
//     given variable order, there is no decomposition, and every residual
//     branches on its top level. Its expansion is exactly the Shannon
//     recursion that builds a reduced OBDD under that order (Olteanu, Huang
//     and Koch, "Approximate confidence computation in probabilistic
//     databases", ICDE 2010, treat an OBDD as a d-tree with only ⊕ nodes),
//     with the probability of each interned residual memoized in place of
//     its diagram node.
//
// In the decomposing setting three rules are tried in order on every
// residual clause set ψ (a positive DNF):
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
// Budgeted compilation: every expanded residual — one applied rule —
// counts one step against Options.NodeBudget; terminals, memo hits and
// single-clause residuals (whose probability is their clause weight) cost
// none. When the budget is exhausted, the remaining residuals are closed
// with the cheap clause-weight bounds
//
//	max_c Π_{v∈c} p(v)  ≤  Pr[ψ]  ≤  min(1, Σ_c Π_{v∈c} p(v))
//
// and the bounds combine monotonically through every rule on the way back
// up, yielding a certified deterministic interval [Lo, Hi] ∋ Pr[φ]. Each
// rule tightens: the combined children's cheap bounds always nest inside
// the parent's, so a larger budget never loosens the interval, and the
// depth-first expansion order is a function of the formula alone, so
// results are deterministic.
//
// The ordered setting's anytime mode (ProbAnytime, the OBDD tier's entry)
// spends the budget better once the exact expansion has run out of it: a
// best-first partial Shannon expansion, after Olteanu, Huang and Koch's
// anytime bounds, over the same canonical clause sets and cofactor split.
// Its frontier holds unexpanded residuals, each weighted by the mass of
// the partial assignment that leads to it; summing mass-weighted cheap
// bounds over the frontier, plus the mass of paths already proven true,
// certifies [Lo, Hi]. Expanding a residual replaces its contribution by its
// two cofactors', which never loosens it (the weight sums split exactly,
// and the heaviest clause survives into a cofactor), so every step tightens
// the interval. The residual with the largest mass-weighted gap expands
// first, ties by insertion order, so a larger budget only extends the
// expansion sequence: the bounds tighten monotonically in the budget too.
//
// Exactly resolved residuals are interned in a clause-set store
// (internal/clauseset: FNV-keyed memo, header arena, scratch free list),
// keyed to their probabilities, and a Builder is reused across formulas —
// batch fan-outs (conf's per-answer driver) pay the map allocations once per
// worker instead of once per answer. Options and Result are aliased from
// clauseset.
package dtree

import (
	"fmt"
	"slices"

	"repro/internal/clauseset"
	"repro/internal/prob"
)

// Options, Result and DefaultNodeBudget are the kernel's contract with its
// callers (internal/clauseset); NodeBudget counts expansion steps.
type (
	Options = clauseset.Options
	Result  = clauseset.Result
)

// DefaultNodeBudget caps the number of expansion steps when
// Options.NodeBudget is zero.
const DefaultNodeBudget = clauseset.DefaultNodeBudget

// Builder holds the reusable state of the kernel: the interned
// exact-residual memo, the clause-header arena with its scratch free list,
// and the literal arena lowered and stripped clauses are built into. Every
// run resets it, keeping the storage; the zero Builder is ready to use.
type Builder struct {
	budget int
	steps  int
	a      *prob.Assignment

	// ordered selects the ordered setting, whose literals are levels of a
	// variable order (level maps a variable to its level, probs a level to
	// its marginal); otherwise literals are raw variable ids.
	ordered bool
	level   map[prob.Var]int32
	probs   []float64

	// stop/stopped: the deadline probe armed from Options.Stop, and its
	// latched outcome for the current pass.
	stop    func() bool
	stopped bool

	// memo interns exactly resolved residuals and owns the clause-header
	// arena and free list; lits is the free tail of the literal arena.
	memo           clauseset.Store
	lits, litBlock []int32

	count    map[int32]int // variable-frequency and component-owner scratch
	parent   []int         // components' union-find forest over clause indexes
	comp     []int         // components' position + 1 of each root clause (0 = none yet)
	comps    [][][]int32   // the open Rule-2 frames' component headers, innermost last
	frontier frontier      // the ordered anytime mode's best-first queue
}

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

// Prob computes Pr[d] in the decomposing setting: exact when the formula
// decomposes within the step budget, certified [lo, hi] bounds otherwise.
// The result is a deterministic function of (d, a, o) — no variable order
// is involved.
func Prob(d *prob.DNF, a *prob.Assignment, o Options) Result {
	return ProbWith(new(Builder), d, a, o)
}

// ProbWith is Prob over a caller-supplied builder, so a batch of per-answer
// compilations reuses one builder's memo and arenas; the result is
// identical to Prob's.
func ProbWith(b *Builder, d *prob.DNF, a *prob.Assignment, o Options) Result {
	b.ordered = false
	res, _ := b.compile(d, a, o, false) // only the ordered lowering can fail
	return res
}

// ProbOrdered computes Pr[d] in the ordered setting over b: Shannon
// expansion on the top level of every residual under the given variable
// order (level 0 first), which must mention every variable of d. The
// result is exact when the expansion fits o's budget; otherwise it carries
// the depth-first clause-weight bounds described above, marked Stopped when
// Options.Stop cut it short. o.TargetWidth plays no part: there is a single
// pass. This is the exact-only path: a caller that discards inexact results
// spends no more than the budget. The result is a deterministic function
// of (d, a, order, o).
func ProbOrdered(b *Builder, d *prob.DNF, a *prob.Assignment, order []prob.Var, o Options) (Result, error) {
	b.setOrder(order, a)
	return b.compile(d, a, o, false)
}

// ProbAnytime is ProbOrdered followed, when the exact expansion ran out of
// budget, by the best-first anytime mode described above: a fresh budget of
// best-first steps, stopping early once hi-lo ≤ o.TargetWidth. Nodes then
// counts both runs' steps. An expansion that Options.Stop cut short keeps
// its own bounds. The result is a deterministic function of
// (d, a, order, o), and a larger budget never loosens it.
func ProbAnytime(b *Builder, d *prob.DNF, a *prob.Assignment, order []prob.Var, o Options) (Result, error) {
	b.setOrder(order, a)
	return b.compile(d, a, o, true)
}

// setOrder selects the ordered setting under the given variable order and
// tabulates each level's marginal under a.
func (b *Builder) setOrder(order []prob.Var, a *prob.Assignment) {
	b.ordered = true
	if b.level == nil {
		b.level = make(map[prob.Var]int32, len(order))
	}
	clear(b.level)
	b.probs = b.probs[:0]
	for i, v := range order {
		b.level[v] = int32(i)
		b.probs = append(b.probs, a.P(v))
	}
}

// compile resets the builder for one formula, runs it — continuing an
// over-budget run best-first when anytime is set — and reports the memo
// counters the run moved.
func (b *Builder) compile(d *prob.DNF, a *prob.Assignment, o Options, anytime bool) (Result, error) {
	if b.count == nil {
		b.count = make(map[int32]int)
	}
	b.memo.Reset()
	b.lits = b.litBlock // the memo and the frontier held the last formula's clauses
	b.a, b.stop, b.stopped = a, o.Stop, false
	hits0, misses0, rec0 := b.memo.Counters()
	res, err := b.passes(d, o)
	if anytime && err == nil && !res.Exact && !res.Stopped {
		res = b.bestFirst(d, o, res.Nodes)
	}
	b.a, b.stop = nil, nil
	hits, misses, rec := b.memo.Counters()
	res.MemoHits, res.MemoMisses, res.HdrRecycled = hits-hits0, misses-misses0, rec-rec0
	return res, err
}

// passes runs the formula under the full budget — or, in the decomposing
// setting's anytime mode (TargetWidth > 0), in geometrically growing passes,
// stopping at the first whose interval is narrow enough. Exact residuals
// memoized by an earlier pass are free in later ones, so the repeated
// prefix work is cheap; Nodes accumulates the total effort.
func (b *Builder) passes(d *prob.DNF, o Options) (Result, error) {
	budget := o.Budget()
	if o.TargetWidth <= 0 || b.ordered {
		return b.run(d, budget)
	}
	total := 0
	for pass := 1 << 10; ; pass *= 4 {
		res, err := b.run(d, min(pass, budget))
		res.Nodes += total
		if err != nil || pass >= budget || res.Exact || res.Hi-res.Lo <= o.TargetWidth || res.Stopped {
			return res, err
		}
		total = res.Nodes
	}
}

// run performs one pass under the given step budget.
func (b *Builder) run(d *prob.DNF, budget int) (Result, error) {
	cls, err := b.lower(d)
	if err != nil {
		return Result{}, err
	}
	b.budget = budget
	b.steps = 0
	b.comps = b.comps[:0] // what a panicked compile left pushed
	lo, hi := b.node(cls)
	res := Result{Lo: lo, Hi: hi, Nodes: b.steps, Stopped: b.stopped && lo != hi}
	if lo == hi {
		res.Exact = true
		res.P = lo
	} else {
		res.P = (lo + hi) / 2
	}
	return res, nil
}

// lower rewrites the DNF as a canonical clause set of literals — raw
// variable ids, or in the ordered setting levels — dropping invalid
// variables: each clause ascending, clauses sorted lexicographically and
// deduplicated. The header and the literal storage come from the builder's
// arenas.
func (b *Builder) lower(d *prob.DNF) ([][]int32, error) {
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
			if !v.Valid() {
				continue
			}
			if !b.ordered {
				lc = append(lc, int32(v)) // prob.Clause is ascending
				continue
			}
			lv, ok := b.level[v]
			if !ok {
				b.memo.Recycle(cls)
				return nil, fmt.Errorf("dtree: variable %v of %s not in the order", v, c)
			}
			lc = append(lc, lv)
		}
		if b.ordered {
			slices.Sort(lc)
		}
		cls = append(cls, lc)
	}
	return clauseset.Normalize(cls), nil
}

// p returns the marginal of a literal.
func (b *Builder) p(l int32) float64 {
	if b.ordered {
		return b.probs[l]
	}
	return b.a.P(prob.Var(l))
}

// weight is Π p over a clause's literals — the probability that one clause
// is true on its own.
func (b *Builder) weight(c []int32) float64 {
	w := 1.0
	for _, l := range c {
		w *= b.p(l)
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
	if b.ordered {
		pos, neg, posTrue := b.condition(cls)
		lo, hi = b.branch(b.p(cls[0][0]), pos, posTrue, neg)
	} else {
		lo, hi = b.decompose(cls)
	}
	if lo == hi {
		b.memo.Put(h, cls, lo) // retains the header
	} else {
		b.memo.Recycle(cls)
	}
	return lo, hi
}

// branch is the Shannon rule both settings share: with p the marginal of
// the branching variable x, Pr[ψ] = p·Pr[ψ|_x] + (1-p)·Pr[ψ|_{¬x}].
// posTrue marks ψ|_x ≡ ⊤ (pos is then nil).
func (b *Builder) branch(p float64, pos [][]int32, posTrue bool, neg [][]int32) (lo, hi float64) {
	l1, h1 := 1.0, 1.0
	if !posTrue {
		l1, h1 = b.node(pos)
	}
	l0, h0 := b.node(neg)
	return p*l1 + (1-p)*l0, p*h1 + (1-p)*h0
}

// condition is the ordered setting's cofactor split of a canonical,
// non-empty clause set without an empty clause on its top level cls[0][0]:
// pos is the cofactor under "true" (the level stripped from the clauses
// that start with it), neg the cofactor under "false" (those clauses
// dropped). posTrue short-circuits the positive cofactor when stripping the
// level empties a clause. Both cofactors come out canonical in linear time,
// with headers from the store's free list: the clauses starting with the
// level are a prefix cls[:k] (lexicographic order), so neg is the suffix
// cls[k:] as it stands, the only clause that can empty is cls[0] (the
// shortest of the prefix), and pos merges the prefix's tails — sorted, as
// the prefix is — into the suffix, dropping tails the suffix already holds.
func (b *Builder) condition(cls [][]int32) (pos, neg [][]int32, posTrue bool) {
	top, k := cls[0][0], 1
	for k < len(cls) && cls[k][0] == top {
		k++
	}
	rest := cls[k:]
	neg = append(b.memo.Scratch(len(rest)), rest...)
	if len(cls[0]) == 1 {
		return nil, neg, true
	}
	pos = b.memo.Scratch(len(cls))
	for _, c := range cls[:k] {
		c = c[1:]
		for len(rest) > 0 {
			d := clauseset.Compare(rest[0], c)
			if d > 0 {
				break
			}
			if d < 0 {
				pos = append(pos, rest[0])
			}
			rest = rest[1:]
		}
		pos = append(pos, c)
	}
	return append(pos, rest...), neg, false
}

// bestFirst is the ordered setting's anytime mode (see the package doc),
// run on a formula whose exact expansion spent `spent` steps and ran out of
// budget. It starts over from the lowered formula on a rewound store (the
// exact run's memo is not consulted), queues residuals on the builder's
// frontier, and recycles each residual's header once it is expanded.
func (b *Builder) bestFirst(d *prob.DNF, o Options, spent int) Result {
	b.memo.Reset()
	cls, _ := b.lower(d) // the exact run lowered d without error
	// sumDone accumulates exactly resolved mass: paths proven true, and
	// residuals whose cheap bounds coincide (empty sets, single clauses),
	// which never enter the frontier. accLo/accHi sum the frontier's
	// mass-weighted cheap bounds.
	sumDone, accLo, accHi := 0.0, 0.0, 0.0
	seq := 0
	add := func(cls [][]int32, mass float64) {
		var wb prob.WeightBound
		for _, c := range cls {
			wb.Add(b.weight(c))
		}
		lo, hi := wb.Interval()
		if lo == hi {
			sumDone += mass * lo
			b.memo.Recycle(cls)
			return
		}
		accLo += mass * lo
		accHi += mass * hi
		b.frontier.push(frontierEntry{cls: cls, mass: mass, lo: lo, hi: hi, gap: mass * (hi - lo), seq: seq})
		seq++
	}
	b.frontier = b.frontier[:0]
	add(cls, 1)
	steps, budget, stopped := 0, o.Budget(), false
	for len(b.frontier) > 0 && steps < budget {
		if (sumDone+accHi)-(sumDone+accLo) <= o.TargetWidth {
			break
		}
		if b.stopFired() {
			stopped = true
			break
		}
		e := b.frontier.pop()
		accLo -= e.mass * e.lo
		accHi -= e.mass * e.hi
		steps++
		p := b.p(e.cls[0][0])
		pos, neg, posTrue := b.condition(e.cls)
		b.memo.Recycle(e.cls)
		if posTrue {
			sumDone += e.mass * p
		} else {
			add(pos, e.mass*p)
		}
		add(neg, e.mass*(1-p))
	}
	exact := len(b.frontier) == 0
	lo, hi := clamp01(sumDone+accLo), clamp01(sumDone+accHi)
	if hi < lo {
		hi = lo // floating accumulation can cross by an ulp
	}
	if exact {
		lo, hi = clamp01(sumDone), clamp01(sumDone)
	}
	return Result{Exact: exact, P: (lo + hi) / 2, Lo: lo, Hi: hi, Nodes: spent + steps,
		Stopped: stopped && !exact}
}

func clamp01(x float64) float64 { return min(max(x, 0), 1) }

// frontierEntry is one unexpanded residual of the anytime mode: its clause
// set, the mass of the path reaching it, its cheap bounds, and its
// expansion priority — the cached gap mass·(hi-lo), ties by insertion seq.
type frontierEntry struct {
	cls               [][]int32
	mass, lo, hi, gap float64
	seq               int
}

func (e *frontierEntry) before(f *frontierEntry) bool {
	if e.gap != f.gap {
		return e.gap > f.gap
	}
	return e.seq < f.seq
}

// frontier is a binary heap of entries, the first to expand on top.
type frontier []frontierEntry

// push sifts e up from the end, moving the entries it passes down one
// level and writing e once where it stops.
func (q *frontier) push(e frontierEntry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(&h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = e
	*q = h
}

// pop removes the top entry and sifts the last one down into its place
// the same way.
func (q *frontier) pop() frontierEntry {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top
}

// decompose applies the decomposing setting's first matching rule:
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
	if base := len(b.comps); b.components(cls) {
		cl, ch := 1.0, 1.0
		for k := base; k < len(b.comps); k++ {
			lo, hi = b.node(b.comps[k])
			cl *= 1 - lo
			ch *= 1 - hi
		}
		clear(b.comps[base:])
		b.comps = b.comps[:base]
		return 1 - cl, 1 - ch
	}
	// Rule 3: exclusive-OR via Shannon cofactoring on the most frequent
	// variable.
	v := b.pickVar(cls)
	pos, posTrue := b.cofactorPos(cls, v)
	return b.branch(b.p(v), pos, posTrue, b.cofactorNeg(cls, v))
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
// components via union-find over clause indexes. It returns false when the
// set is connected (rule does not apply); otherwise it pushes one header
// per component onto b.comps, components ordered by their smallest clause
// index and clauses in their original (canonical) order — fully
// deterministic. The caller's Rule-2 frame pops them when it returns;
// frames below it push above them, so the stack grows only as deep as
// the decomposition nests.
func (b *Builder) components(cls [][]int32) bool {
	b.parent = b.parent[:0]
	for i := range cls {
		b.parent = append(b.parent, i)
	}
	parent := b.parent
	find := func(x int) int {
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
	b.comp = append(b.comp[:0], make([]int, len(cls))...)
	n := 0
	for i := range cls {
		if r := find(i); b.comp[r] == 0 {
			n++
			b.comp[r] = n
		}
	}
	if n <= 1 {
		return false
	}
	base := len(b.comps)
	for range n {
		b.comps = append(b.comps, b.memo.Scratch(len(cls)))
	}
	for i, c := range cls {
		k := base + b.comp[find(i)] - 1
		b.comps[k] = append(b.comps[k], c)
	}
	return true
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
// arena, which only compile rewinds (the memo may retain stripped clauses).
// A formula that outgrows the block moves on to one at least twice as
// large, which the next starts from: a steady recompile allocates none.
func (b *Builder) allocLits(n int) []int32 {
	if len(b.lits) < n {
		b.litBlock = make([]int32, max(n, 2*cap(b.litBlock), litArenaBlock))
		b.lits = b.litBlock
	}
	s := b.lits[:0:n]
	b.lits = b.lits[n:]
	return s
}
