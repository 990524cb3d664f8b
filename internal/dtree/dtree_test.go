package dtree_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/prob"
)

func TestTerminals(t *testing.T) {
	a := prob.NewAssignment()
	a.MustSet(1, 0.3)
	a.MustSet(2, 0.4)

	if res := dtree.Prob(&prob.DNF{}, a, dtree.Options{}); !res.Exact || res.P != 0 {
		t.Errorf("empty DNF: %+v, want exact 0", res)
	}
	top := prob.NewDNF(prob.Clause{})
	if res := dtree.Prob(top, a, dtree.Options{}); !res.Exact || res.P != 1 {
		t.Errorf("⊤ (empty clause): %+v, want exact 1", res)
	}
	one := prob.NewDNF(prob.NewClause(1, 2))
	if res := dtree.Prob(one, a, dtree.Options{}); !res.Exact || res.P != 0.3*0.4 {
		t.Errorf("single clause: %+v, want exact %v", res, 0.3*0.4)
	}
	// Terminals consume no decomposition steps, so even a budget of 1
	// resolves them exactly.
	if res := dtree.Prob(one, a, dtree.Options{NodeBudget: 1}); !res.Exact {
		t.Errorf("single clause under budget 1: %+v, want exact", res)
	}
}

// TestDecompositionRules pins each rule on the worked example from the
// package doc: ψ = x₁y₁ ∨ x₁y₂ ∨ x₂y₂ ∨ ab decomposes by independent-OR
// (split off ab), independent-AND (collapse ab), and one Shannon split —
// and the result matches the Shannon-expansion oracle exactly.
func TestDecompositionRules(t *testing.T) {
	// Vars: x1=1 x2=2 y1=3 y2=4 a=5 b=6.
	d := prob.NewDNF(
		prob.NewClause(1, 3),
		prob.NewClause(1, 4),
		prob.NewClause(2, 4),
		prob.NewClause(5, 6),
	)
	a := prob.NewAssignment()
	for v, p := range map[prob.Var]float64{1: 0.5, 2: 0.6, 3: 0.7, 4: 0.2, 5: 0.9, 6: 0.1} {
		a.MustSet(v, p)
	}
	truth, err := prob.ProbByWorlds(d, a)
	if err != nil {
		t.Fatal(err)
	}
	res := dtree.Prob(d, a, dtree.Options{})
	if !res.Exact {
		t.Fatalf("worked example did not resolve exactly: %+v", res)
	}
	if !prob.ApproxEqual(res.P, truth, 1e-9) {
		t.Errorf("P = %.12f, worlds oracle %.12f", res.P, truth)
	}
	// ab splits off by independent-OR and collapses by independent-AND
	// without branching; the x/y component needs one Shannon split on x₁
	// whose cofactors decompose by the independence rules. The step count
	// pins that shape: far fewer steps than the 2^6 world enumeration.
	if res.Nodes == 0 || res.Nodes > 12 {
		t.Errorf("decomposition took %d steps, want a small nonzero count", res.Nodes)
	}
}

// TestDifferential runs the repo-wide harness over random lineage-shaped
// formulas: worlds oracle vs Shannon vs OBDD vs d-tree vs Monte Carlo.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 60; i++ {
		d, a := difftest.RandomDNF(rng, 12)
		if err := difftest.Check(d, a); err != nil {
			t.Fatalf("formula %d: %v", i, err)
		}
	}
}

// TestBlocksClassOBDDBlowup is the acceptance scenario: on the interleaved
// blocks class the OBDD tier exceeds its default node budget (width ~3^k
// under the occurrence order) while the d-tree tier — order-free — splits
// the blocks by independent-OR and stays exact, matching the closed form.
func TestBlocksClassOBDDBlowup(t *testing.T) {
	const k = 12
	d, a, truth := difftest.BlocksDNF(k)

	or, err := obdd.Prob(d, a, obdd.OccurrenceOrder(d, nil), obdd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if or.Exact {
		t.Fatalf("OBDD compiled the %d-block class exactly (%d nodes) — class no longer a blow-up", k, or.Nodes)
	}
	if truth < or.Lo-1e-9 || truth > or.Hi+1e-9 {
		t.Errorf("OBDD bounds [%.9f, %.9f] do not certify truth %.9f", or.Lo, or.Hi, truth)
	}

	dr := dtree.Prob(d, a, dtree.Options{})
	if !dr.Exact {
		t.Fatalf("d-tree did not resolve the %d-block class exactly: %+v", k, dr)
	}
	if !prob.ApproxEqual(dr.P, truth, 1e-9) {
		t.Errorf("d-tree P = %.12f, closed form %.12f", dr.P, truth)
	}
	if dr.Nodes >= or.Nodes {
		t.Errorf("d-tree used %d steps vs OBDD's %d — independence detection buys nothing here?", dr.Nodes, or.Nodes)
	}
}

// TestBoundsMonotoneInBudget: growing the step budget never loosens the
// certified interval, and the bounds always contain the exact value.
func TestBoundsMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := &prob.DNF{}
	a := prob.NewAssignment()
	for v := 1; v <= 20; v++ {
		a.MustSet(prob.Var(v), 0.05+0.9*rng.Float64())
	}
	for i := 0; i < 30; i++ {
		w := 2 + rng.Intn(3)
		vars := make([]prob.Var, 0, w)
		for j := 0; j < w; j++ {
			vars = append(vars, prob.Var(1+rng.Intn(20)))
		}
		d.Add(prob.NewClause(vars...))
	}
	exact := dtree.Prob(d, a, dtree.Options{})
	if !exact.Exact {
		t.Fatalf("full budget did not resolve exactly: %+v", exact)
	}
	prevLo, prevHi := 0.0, 1.0
	for budget := 1; budget <= 1<<12; budget *= 2 {
		res := dtree.Prob(d, a, dtree.Options{NodeBudget: budget})
		if res.Lo > exact.P+1e-9 || res.Hi < exact.P-1e-9 {
			t.Fatalf("budget %d: [%.9f, %.9f] does not contain exact %.9f", budget, res.Lo, res.Hi, exact.P)
		}
		if res.Lo < prevLo-1e-12 || res.Hi > prevHi+1e-12 {
			t.Fatalf("budget %d loosened the interval: [%.9f, %.9f] after [%.9f, %.9f]",
				budget, res.Lo, res.Hi, prevLo, prevHi)
		}
		prevLo, prevHi = res.Lo, res.Hi
		if res.Exact {
			return // converged; later budgets are identical
		}
	}
	t.Fatal("never converged to exact within 2^12 steps")
}

// TestTargetWidth: anytime mode stops at the first pass whose certified
// interval is narrow enough, spending fewer steps than full compilation.
func TestTargetWidth(t *testing.T) {
	// 40 blocks keep the decomposition busy (several thousand steps) so the
	// progressive passes have room to stop early.
	d, a, truth := difftest.BlocksDNF(40)
	res := dtree.Prob(d, a, dtree.Options{TargetWidth: 0.5})
	if !res.Exact && res.Hi-res.Lo > 0.5 {
		t.Fatalf("TargetWidth 0.5 returned width %g: %+v", res.Hi-res.Lo, res)
	}
	if truth < res.Lo-1e-9 || truth > res.Hi+1e-9 {
		t.Fatalf("[%.9f, %.9f] does not certify truth %.9f", res.Lo, res.Hi, truth)
	}
	// A width of 0 must behave like plain full-budget compilation.
	full := dtree.Prob(d, a, dtree.Options{})
	if !full.Exact || !prob.ApproxEqual(full.P, truth, 1e-9) {
		t.Fatalf("full compile: %+v, closed form %.12f", full, truth)
	}
}

// TestBuilderReset: a pooled builder reused across formulas via Reset gives
// bit-identical results to fresh builders — the contract the per-worker
// pooling in internal/conf relies on.
func TestBuilderReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type formula struct {
		d *prob.DNF
		a *prob.Assignment
	}
	var fs []formula
	for i := 0; i < 20; i++ {
		d, a := difftest.RandomDNF(rng, 12)
		fs = append(fs, formula{d, a})
	}
	b := dtree.NewBuilder(0)
	for i, f := range fs {
		fresh := dtree.Prob(f.d, f.a, dtree.Options{})
		b.Reset(0)
		pooled := dtree.ProbWith(b, f.d, f.a, dtree.Options{})
		// Reset empties the scratch free list with the arena it points
		// into, so even HdrRecycled matches a fresh builder's.
		if fresh != pooled {
			t.Fatalf("formula %d: fresh %+v != pooled %+v", i, fresh, pooled)
		}
	}
}

// TestResetKeepsHeaderArena: re-decomposing the benchmark-shaped formula on
// a Reset builder allocates no clause-set header block, ever again, and
// recycles exactly as many headers as the run before.
func TestResetKeepsHeaderArena(t *testing.T) {
	d, a := difftest.JoinDNF(rand.New(rand.NewSource(1)), 12, 12, 51)
	var b dtree.Builder
	err := difftest.CheckSteadyRecompile(func() dtree.Result {
		b.Reset(0)
		return dtree.ProbWith(&b, d, a, dtree.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedMidpoint: a bounded result reports the interval midpoint so
// |P - truth| ≤ (Hi-Lo)/2 — the contract the conf layer's stats rely on.
func TestBoundedMidpoint(t *testing.T) {
	d, a, truth := difftest.BlocksDNF(12)
	res := dtree.Prob(d, a, dtree.Options{NodeBudget: 3})
	if res.Exact {
		t.Fatalf("budget 3 resolved a 12-block class exactly: %+v", res)
	}
	if res.P != (res.Lo+res.Hi)/2 {
		t.Errorf("P = %v is not the midpoint of [%v, %v]", res.P, res.Lo, res.Hi)
	}
	if math.Abs(res.P-truth) > (res.Hi-res.Lo)/2+1e-12 {
		t.Errorf("midpoint error %g exceeds half-width %g", math.Abs(res.P-truth), (res.Hi-res.Lo)/2)
	}
}
