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
	// The ordered setting's entry resolves them before its anytime mode
	// could start, at any budget.
	var b dtree.Builder
	for _, c := range []struct {
		name string
		d    *prob.DNF
		want float64
	}{{"empty DNF", &prob.DNF{}, 0}, {"⊤", top, 1}, {"single clause", one, 0.3 * 0.4}} {
		for _, budget := range []int{1, 0} {
			res, err := dtree.ProbAnytime(&b, c.d, a, obdd.OccurrenceOrder(c.d, nil), dtree.Options{NodeBudget: budget})
			if err != nil || !res.Exact || res.P != c.want || res.Nodes != 0 {
				t.Errorf("ordered %s, budget %d: %+v, %v; want exact %v in 0 steps", c.name, budget, res, err, c.want)
			}
		}
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

// TestBlocksClassOBDDBlowup is the acceptance scenario, run on the two
// settings of one kernel builder: on the interleaved blocks class the
// ordered setting exceeds the default budget (OBDD width ~3^k under the
// occurrence order), and its best-first anytime mode still certifies the
// truth, while the decomposing setting splits the blocks by independent-OR
// and stays exact, matching the closed form, in far fewer steps.
func TestBlocksClassOBDDBlowup(t *testing.T) {
	const k = 12
	d, a, truth := difftest.BlocksDNF(k)
	order := obdd.OccurrenceOrder(d, nil)
	var b dtree.Builder

	or, err := dtree.ProbOrdered(&b, d, a, order, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if or.Exact || or.Nodes != dtree.DefaultNodeBudget {
		t.Fatalf("ordered setting on the %d-block class: %+v — class no longer a blow-up", k, or)
	}
	bounded, err := dtree.ProbAnytime(&b, d, a, order, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if truth < bounded.Lo-1e-9 || truth > bounded.Hi+1e-9 {
		t.Errorf("OBDD bounds [%.9f, %.9f] do not certify truth %.9f", bounded.Lo, bounded.Hi, truth)
	}
	if w := bounded.Hi - bounded.Lo; w >= or.Hi-or.Lo || bounded.Nodes <= or.Nodes {
		t.Errorf("anytime mode: %+v after the exact run's %+v — no best-first steps, or no narrower interval", bounded, or)
	}

	dr := dtree.ProbWith(&b, d, a, dtree.Options{})
	if !dr.Exact {
		t.Fatalf("decomposing setting did not resolve the %d-block class exactly: %+v", k, dr)
	}
	if !prob.ApproxEqual(dr.P, truth, 1e-9) {
		t.Errorf("d-tree P = %.12f, closed form %.12f", dr.P, truth)
	}
	if dr.Nodes >= or.Nodes {
		t.Errorf("decomposing setting used %d steps vs the ordered setting's %d — independence detection buys nothing here?", dr.Nodes, or.Nodes)
	}
}

// TestBoundsMonotoneInBudget: in both settings — the decomposing one's
// depth-first bounds and the ordered one's best-first anytime mode —
// growing the step budget never loosens the certified interval, the bounds
// always contain the exact value, and an ample budget closes them, on one
// 30-clause formula over 20 variables.
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
	if !exact.Exact || !prob.ApproxEqual(exact.P, d.Prob(a), 1e-9) {
		t.Fatalf("full budget %+v, Shannon oracle %.9f", exact, d.Prob(a))
	}
	var b dtree.Builder
	order := obdd.OccurrenceOrder(d, nil)
	for _, setting := range []struct {
		name string
		run  func(budget int) dtree.Result
	}{
		{"decomposing", func(budget int) dtree.Result {
			return dtree.Prob(d, a, dtree.Options{NodeBudget: budget})
		}},
		{"ordered anytime", func(budget int) dtree.Result {
			res, err := dtree.ProbAnytime(&b, d, a, order, dtree.Options{NodeBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	} {
		prevLo, prevHi := 0.0, 1.0
		converged := false
		for budget := 1; budget <= 1<<12 && !converged; budget *= 2 {
			res := setting.run(budget)
			if res.Lo > exact.P+1e-9 || res.Hi < exact.P-1e-9 {
				t.Fatalf("%s, budget %d: [%.9f, %.9f] does not contain exact %.9f",
					setting.name, budget, res.Lo, res.Hi, exact.P)
			}
			if res.Lo < prevLo-1e-12 || res.Hi > prevHi+1e-12 {
				t.Fatalf("%s, budget %d loosened the interval: [%.9f, %.9f] after [%.9f, %.9f]",
					setting.name, budget, res.Lo, res.Hi, prevLo, prevHi)
			}
			prevLo, prevHi = res.Lo, res.Hi
			converged = res.Exact // later budgets are identical
		}
		if !converged {
			t.Fatalf("%s: never converged to exact within 2^12 steps", setting.name)
		}
	}
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

	// The ordered setting's anytime mode stops at the first best-first step
	// whose interval is narrow enough: on 12 blocks, whose exact expansion
	// runs out of a 300-step budget, the interval after the whole budget is
	// ≈ 0.14 wide, so a target of 0.2 is met with budget to spare.
	d, a, truth = difftest.BlocksDNF(12)
	order := obdd.OccurrenceOrder(d, nil)
	var b dtree.Builder
	spent, err := dtree.ProbAnytime(&b, d, a, order, dtree.Options{NodeBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	early, err := dtree.ProbAnytime(&b, d, a, order, dtree.Options{NodeBudget: 300, TargetWidth: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if spent.Exact || spent.Hi-spent.Lo > 0.2 {
		t.Fatalf("full 300-step budget: %+v, want bounds narrower than 0.2", spent)
	}
	if early.Hi-early.Lo > 0.2 || early.Nodes >= spent.Nodes {
		t.Errorf("TargetWidth 0.2: %+v, want width ≤ 0.2 in fewer steps than the full budget's %d", early, spent.Nodes)
	}
	if truth < early.Lo-1e-9 || truth > early.Hi+1e-9 {
		t.Errorf("[%.9f, %.9f] does not certify truth %.9f", early.Lo, early.Hi, truth)
	}
}

// TestBuilderReset: a pooled builder reused across formulas gives
// bit-identical results to fresh builders, in both settings and whether or
// not the ordered anytime mode runs — the contract the per-worker pooling
// in internal/conf relies on, and the results' determinism.
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
	var b dtree.Builder
	for i, f := range fs {
		fresh := dtree.Prob(f.d, f.a, dtree.Options{})
		pooled := dtree.ProbWith(&b, f.d, f.a, dtree.Options{})
		// Every run empties the scratch free list with the arena it
		// points into, so even HdrRecycled matches a fresh builder's.
		if fresh != pooled {
			t.Fatalf("formula %d: fresh %+v != pooled %+v", i, fresh, pooled)
		}
		order := obdd.OccurrenceOrder(f.d, nil)
		for _, budget := range []int{2, 10, 0} {
			o := dtree.Options{NodeBudget: budget}
			fresh, err := dtree.ProbAnytime(new(dtree.Builder), f.d, f.a, order, o)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := dtree.ProbAnytime(&b, f.d, f.a, order, o)
			if err != nil {
				t.Fatal(err)
			}
			if fresh != pooled {
				t.Fatalf("formula %d, ordered, budget %d: fresh %+v != pooled %+v", i, budget, fresh, pooled)
			}
		}
	}
}

// TestResetKeepsHeaderArena: re-decomposing the benchmark-shaped formula on
// a reused builder allocates no clause-set header block, ever again, and
// recycles exactly as many headers as the run before. internal/obdd pins the
// same for the ordered setting, within the budget and over it.
func TestResetKeepsHeaderArena(t *testing.T) {
	d, a := difftest.JoinDNF(rand.New(rand.NewSource(1)), 12, 12, 51)
	var b dtree.Builder
	err := difftest.CheckSteadyRecompile(func() dtree.Result {
		return dtree.ProbWith(&b, d, a, dtree.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedMidpoint: a bounded result reports the interval midpoint so
// |P - truth| ≤ (Hi-Lo)/2 — the contract the conf layer's stats rely on —
// in the decomposing setting and in the ordered one, whose anytime mode a
// starved budget forces, on the 12-block class.
func TestBoundedMidpoint(t *testing.T) {
	check := func(name string, res dtree.Result, truth float64) {
		t.Helper()
		if res.Exact && !prob.ApproxEqual(res.P, truth, 1e-9) {
			t.Errorf("%s: exact result %v, truth %v", name, res.P, truth)
		}
		if res.P != (res.Lo+res.Hi)/2 {
			t.Errorf("%s: P = %v is not the midpoint of [%v, %v]", name, res.P, res.Lo, res.Hi)
		}
		if math.Abs(res.P-truth) > (res.Hi-res.Lo)/2+1e-12 {
			t.Errorf("%s: midpoint error %g exceeds half-width %g", name, math.Abs(res.P-truth), (res.Hi-res.Lo)/2)
		}
	}
	var b dtree.Builder
	ordered := func(d *prob.DNF, a *prob.Assignment, budget int) dtree.Result {
		res, err := dtree.ProbAnytime(&b, d, a, obdd.OccurrenceOrder(d, nil), dtree.Options{NodeBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	d, a, truth := difftest.BlocksDNF(12)
	for name, res := range map[string]dtree.Result{
		"decomposing": dtree.Prob(d, a, dtree.Options{NodeBudget: 3}),
		"ordered":     ordered(d, a, 3),
	} {
		if res.Exact {
			t.Fatalf("%s: budget 3 resolved a 12-block class exactly: %+v", name, res)
		}
		check(name, res, truth)
	}
}
