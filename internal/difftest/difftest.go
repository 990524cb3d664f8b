// Package difftest is the repo-wide differential test harness for the
// confidence ladder. Every tier computes (or brackets) the same quantity —
// the probability of a positive DNF lineage formula under independent
// tuple marginals — so for any formula small enough to enumerate, all of
// them can be checked against the definitional possible-worlds semantics
// and against each other:
//
//   - prob.ProbByWorlds is the oracle (exponential, ≤ prob.MaxWorldVars);
//   - (*prob.DNF).Prob (Shannon expansion) must match it exactly;
//   - obdd.Prob must match exactly when it reports Exact, and its certified
//     [Lo, Hi] interval must contain the truth otherwise — including under
//     a deliberately starved node budget;
//   - dtree.Prob likewise, in both full-budget and starved configurations;
//   - both compilers must be deterministic (bit-identical on a re-run);
//   - the (ε, δ) Monte Carlo estimate must land within its advertised ε
//     (the per-formula seed is fixed, so this is a frozen coin flip with
//     failure probability δ, not a flaky assertion).
//
// The package is consumed two ways: property tests in internal/prob,
// internal/obdd and internal/dtree feed Check with RandomDNF formulas, and
// the FuzzCompile targets feed it (sans the slow MC leg) with DecodeDNF
// formulas derived from fuzzer-mutated byte strings.
package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clauseset"
	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/prob"
)

// exactEps bounds the float64 rounding drift tolerated between two exact
// computations of the same probability over different expansion orders.
const exactEps = 1e-9

// RandomDNF draws a random positive DNF over at most maxVars variables,
// with random marginals in [0.05, 0.95) — small enough for ProbByWorlds
// whenever maxVars ≤ prob.MaxWorldVars, and shaped like per-answer lineage
// (a handful of clauses of one to four literals each).
func RandomDNF(rng *rand.Rand, maxVars int) (*prob.DNF, *prob.Assignment) {
	nv := 1 + rng.Intn(maxVars)
	a := prob.NewAssignment()
	for v := 1; v <= nv; v++ {
		a.MustSet(prob.Var(v), 0.05+0.9*rng.Float64())
	}
	d := &prob.DNF{}
	nc := 1 + rng.Intn(8)
	for i := 0; i < nc; i++ {
		w := 1 + rng.Intn(4)
		vars := make([]prob.Var, 0, w)
		for j := 0; j < w; j++ {
			vars = append(vars, prob.Var(1+rng.Intn(nv)))
		}
		d.Add(prob.NewClause(vars...))
	}
	return d, a
}

// JoinDNF draws the lineage of one answer of the unsafe query
// π{odate}(Cust ⋈ Ord ⋈ Item): one three-literal clause per item — the
// item's own variable, its order's, the order's customer's — so customer
// and order variables are shared between clauses and no polynomial
// shortcut applies; clauses come in the canonical (sorted) order lineage
// collection emits. JoinDNF(rng, 12, 12, 51) is the shape the
// lineage_unsafe benchmark samples and compiles: 75 variables, 51 clauses.
// The alloc pins and micro-benchmarks of the lineage tiers use it.
func JoinDNF(rng *rand.Rand, custs, orders, items int) (*prob.DNF, *prob.Assignment) {
	a := prob.NewAssignment()
	for v := 1; v <= custs+orders+items; v++ {
		a.MustSet(prob.Var(v), 0.05+0.9*rng.Float64())
	}
	custOf := make([]int, orders)
	for o := range custOf {
		custOf[o] = rng.Intn(custs)
	}
	d := &prob.DNF{}
	for i := 0; i < items; i++ {
		o := rng.Intn(orders)
		d.Clauses = append(d.Clauses, prob.NewClause(prob.Var(1+custOf[o]), prob.Var(1+custs+o), prob.Var(1+custs+orders+i)))
	}
	slices.SortFunc(d.Clauses, slices.Compare[prob.Clause])
	return d, a
}

// BlocksDNF builds the "interleaved blocks" lineage class: k variable-
// disjoint blocks, each the complete bipartite product of two x-variables
// and two y-variables — in DNF, the four clauses x_i ∧ y_j, i.e. block_b ≡
// (x₁∨x₂)(y₁∨y₂) — OR-ed together. The clauses are emitted (i, j)-major and
// block-minor, so the occurrence-derived variable order interleaves all k
// blocks; an OBDD under that order must track every unfinished block's
// residual simultaneously (three live states per block) and its width
// reaches ~3^k. A d-tree, by contrast, is order-free: independent-OR splits
// the k blocks apart in one step and each block resolves in a handful of
// Shannon steps. This is the class where the OBDD tier exceeds its default
// node budget while the d-tree tier stays exact.
//
// The blocks are variable-disjoint, so the exact probability has a closed
// form, returned as the oracle:
//
//	Pr[φ] = 1 - Π_b (1 - Pr[block_b]),
//	Pr[block_b] = (1-(1-p(x₁))(1-p(x₂))) · (1-(1-p(y₁))(1-p(y₂)))
func BlocksDNF(k int) (*prob.DNF, *prob.Assignment, float64) {
	a := prob.NewAssignment()
	pv := func(v prob.Var) float64 { return 0.30 + 0.05*float64((int(v)-1)%8) }
	for v := prob.Var(1); v <= prob.Var(4*k); v++ {
		a.MustSet(v, pv(v))
	}
	d := &prob.DNF{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for b := 0; b < k; b++ {
				x := prob.Var(4*b + 1 + i)
				y := prob.Var(4*b + 3 + j)
				d.Add(prob.NewClause(x, y))
			}
		}
	}
	truth := 1.0
	for b := 0; b < k; b++ {
		x1, x2 := prob.Var(4*b+1), prob.Var(4*b+2)
		y1, y2 := prob.Var(4*b+3), prob.Var(4*b+4)
		px := 1 - (1-pv(x1))*(1-pv(x2))
		py := 1 - (1-pv(y1))*(1-pv(y2))
		truth *= 1 - px*py
	}
	return d, a, 1 - truth
}

// CheckSteadyRecompile pins the clause-set store's Reset contract through a
// compiler: recompile Resets one pooled builder and compiles one formula,
// and from the second call on every call must allocate exactly as often as
// the one before and return the identical Result, HdrRecycled included. A
// store whose Reset orphaned its header arena fails it — some recompiles
// then allocate a fresh header block and some do not — and so does one
// whose free list outlives Reset, by handing the next formula a different
// number of recycled headers.
func CheckSteadyRecompile(recompile func() clauseset.Result) error {
	recompile()
	want := recompile()
	allocs := testing.AllocsPerRun(1, func() { recompile() })
	for i := 0; i < 16; i++ {
		var got clauseset.Result
		if n := testing.AllocsPerRun(1, func() { got = recompile() }); n != allocs {
			return fmt.Errorf("recompile %d allocated %v times, the one before %v", i, n, allocs)
		}
		if got != want {
			return fmt.Errorf("recompile %d returned %+v, want %+v", i, got, want)
		}
	}
	return nil
}

// DecodeDNF maps an arbitrary byte string onto a DNF over at most 12
// variables plus deterministic marginals — the shared input decoder of the
// FuzzCompile targets, so corpus entries mean the same formula in every
// fuzz package. Byte 0 seeds the marginals; each following byte is either a
// clause separator (0) or the variable 1 + b mod 12. Empty clauses are
// skipped (a fuzzer would otherwise trivially pin every formula to ⊤); ok
// is false when no clause survives.
func DecodeDNF(data []byte) (d *prob.DNF, a *prob.Assignment, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	seed, rest := int(data[0]), data[1:]
	a = prob.NewAssignment()
	for v := 1; v <= 12; v++ {
		a.MustSet(prob.Var(v), float64((seed+v*37)%90+5)/100)
	}
	d = &prob.DNF{}
	var vars []prob.Var
	flush := func() {
		if len(vars) > 0 {
			d.Add(prob.NewClause(vars...))
			vars = vars[:0]
		}
	}
	for _, b := range rest {
		if b == 0 {
			flush()
			continue
		}
		vars = append(vars, prob.Var(1+int(b)%12))
	}
	flush()
	if len(d.Clauses) == 0 {
		return nil, nil, false
	}
	return d, a, true
}

// Check runs the full differential battery on one formula. It returns nil
// when every tier agrees and a descriptive error naming the offending tier
// otherwise. The formula must have at most prob.MaxWorldVars variables.
func Check(d *prob.DNF, a *prob.Assignment) error {
	if err := CheckCompile(d, a); err != nil {
		return err
	}
	truth, err := prob.ProbByWorlds(d, a)
	if err != nil {
		return err
	}
	est, err := prob.EstimateAllCtx(context.Background(), []*prob.DNF{d}, a, prob.MCOptions{
		Epsilon: 0.05, Delta: 0.01, Seed: 7,
	})
	if err != nil {
		return err
	}
	// The estimator resolves trivial formulas exactly (Epsilon 0); those
	// only need to match modulo rounding drift.
	if e := est[0]; math.Abs(e.P-truth) > math.Max(e.Epsilon, exactEps) {
		return fmt.Errorf("difftest: MC estimate %.9f misses truth %.9f by more than ε=%g (%s, %d samples) on %v",
			e.P, truth, e.Epsilon, e.Method, e.Samples, d)
	}
	return nil
}

// CheckCompile is Check without the Monte Carlo leg: the exact tiers and
// both compilers' certified bounds against the possible-worlds oracle. The
// fuzz targets use this variant — it keeps an execution in the microsecond
// range, and the estimator's (ε, δ) guarantee is a statement about seeds,
// not formulas, so fuzzing mutated formulas against it proves nothing the
// property tests don't.
func CheckCompile(d *prob.DNF, a *prob.Assignment) error {
	truth, err := prob.ProbByWorlds(d, a)
	if err != nil {
		return err
	}
	if p := d.Prob(a); math.Abs(p-truth) > exactEps {
		return fmt.Errorf("difftest: Shannon oracle %.12f != worlds %.12f on %v", p, truth, d)
	}

	order := obdd.OccurrenceOrder(d, nil)
	full, err := obdd.Prob(d, a, order, obdd.Options{})
	if err != nil {
		return fmt.Errorf("difftest: obdd full-budget: %w", err)
	}
	if err := checkResult("obdd", full.Exact, full.P, full.Lo, full.Hi, truth, d); err != nil {
		return err
	}
	starved, err := obdd.Prob(d, a, order, obdd.Options{NodeBudget: 1})
	if err != nil {
		return fmt.Errorf("difftest: obdd starved-budget: %w", err)
	}
	if err := checkResult("obdd[budget=1]", starved.Exact, starved.P, starved.Lo, starved.Hi, truth, d); err != nil {
		return err
	}
	again, err := obdd.Prob(d, a, order, obdd.Options{})
	if err != nil {
		return err
	}
	if again != full {
		return fmt.Errorf("difftest: obdd not deterministic: %+v then %+v on %v", full, again, d)
	}

	dfull := dtree.Prob(d, a, dtree.Options{})
	if err := checkResult("dtree", dfull.Exact, dfull.P, dfull.Lo, dfull.Hi, truth, d); err != nil {
		return err
	}
	dstarved := dtree.Prob(d, a, dtree.Options{NodeBudget: 1})
	if err := checkResult("dtree[budget=1]", dstarved.Exact, dstarved.P, dstarved.Lo, dstarved.Hi, truth, d); err != nil {
		return err
	}
	if dagain := dtree.Prob(d, a, dtree.Options{}); dagain != dfull {
		return fmt.Errorf("difftest: dtree not deterministic: %+v then %+v on %v", dfull, dagain, d)
	}
	return nil
}

// CheckDegraded is the graceful-degradation contract against the oracle:
// a compilation cut short by Options.Stop after the given number of polls —
// including zero, the watermark-already-passed case — must still return
// certified [Lo, Hi] bounds containing the truth, report Stopped (unless it
// finished exactly first), and be deterministic for a fixed poll count.
func CheckDegraded(d *prob.DNF, a *prob.Assignment, polls int) error {
	truth, err := prob.ProbByWorlds(d, a)
	if err != nil {
		return err
	}
	stopAfter := func(n int) func() bool {
		left := n
		return func() bool { left--; return left < 0 }
	}

	order := obdd.OccurrenceOrder(d, nil)
	res, err := obdd.Prob(d, a, order, obdd.Options{Stop: stopAfter(polls)})
	if err != nil {
		return fmt.Errorf("difftest: obdd stopped compile: %w", err)
	}
	if err := checkResult(fmt.Sprintf("obdd[stop=%d]", polls), res.Exact, res.P, res.Lo, res.Hi, truth, d); err != nil {
		return err
	}
	if !res.Exact && !res.Stopped {
		return fmt.Errorf("difftest: obdd[stop=%d] inexact but not Stopped: %+v on %v", polls, res, d)
	}
	if again, err := obdd.Prob(d, a, order, obdd.Options{Stop: stopAfter(polls)}); err != nil || again != res {
		return fmt.Errorf("difftest: obdd[stop=%d] not deterministic: %+v then %+v (%v) on %v", polls, res, again, err, d)
	}

	dres := dtree.Prob(d, a, dtree.Options{Stop: stopAfter(polls)})
	if err := checkResult(fmt.Sprintf("dtree[stop=%d]", polls), dres.Exact, dres.P, dres.Lo, dres.Hi, truth, d); err != nil {
		return err
	}
	if !dres.Exact && !dres.Stopped {
		return fmt.Errorf("difftest: dtree[stop=%d] inexact but not Stopped: %+v on %v", polls, dres, d)
	}
	if dagain := dtree.Prob(d, a, dtree.Options{Stop: stopAfter(polls)}); dagain != dres {
		return fmt.Errorf("difftest: dtree[stop=%d] not deterministic: %+v then %+v on %v", polls, dres, dagain, d)
	}

	// The zero-work fallback for answers whose compilation never started.
	lo, hi := d.CheapBounds(a)
	if lo-exactEps > truth || truth > hi+exactEps {
		return fmt.Errorf("difftest: CheapBounds [%.9f, %.9f] exclude truth %.9f on %v", lo, hi, truth, d)
	}
	return nil
}

// checkResult validates one compiler outcome against the oracle: exact
// results must match to exactEps bit-for-bit-style, bounded results must be
// a well-formed interval inside [0, 1] containing the truth.
func checkResult(tier string, exact bool, p, lo, hi, truth float64, d *prob.DNF) error {
	if exact {
		if lo != p || hi != p {
			return fmt.Errorf("difftest: %s exact result with open interval [%.12f, %.12f], P=%.12f on %v", tier, lo, hi, p, d)
		}
		if math.Abs(p-truth) > exactEps {
			return fmt.Errorf("difftest: %s exact %.12f != worlds %.12f on %v", tier, p, truth, d)
		}
		return nil
	}
	if !(lo <= hi) || lo < 0 || hi > 1 {
		return fmt.Errorf("difftest: %s malformed interval [%.12f, %.12f] on %v", tier, lo, hi, d)
	}
	if truth < lo-exactEps || truth > hi+exactEps {
		return fmt.Errorf("difftest: %s interval [%.12f, %.12f] does not contain worlds %.12f on %v", tier, lo, hi, truth, d)
	}
	if p != (lo+hi)/2 {
		return fmt.Errorf("difftest: %s bounded P=%.12f is not the midpoint of [%.12f, %.12f] on %v", tier, p, lo, hi, d)
	}
	return nil
}
