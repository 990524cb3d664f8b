package plan

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/fd"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/table"
)

// hardDB builds a randomized instance of the prototypical #P-hard pattern
// R(a) ⋈ S(a,b) ⋈ T(b): bipartite lineage that no hierarchical signature
// covers (§II). Sizes stay small enough for exact world enumeration.
func hardDB(rng *rand.Rand) *Catalog {
	c := NewCatalog()
	var v prob.Var
	newVar := func() prob.Var { v++; return v }
	p := func() float64 { return 0.1 + 0.8*rng.Float64() }

	r := table.NewProbTable("R", table.DataCol("a", table.KindInt), table.DataCol("c", table.KindInt))
	s := table.NewProbTable("S", table.DataCol("a", table.KindInt), table.DataCol("b", table.KindInt))
	u := table.NewProbTable("T", table.DataCol("b", table.KindInt))
	for a := 0; a < 3; a++ {
		for c := 0; c < 2; c++ {
			r.MustAddRow(newVar(), p(), table.Int(int64(a)), table.Int(int64(c)))
		}
	}
	for b := 0; b < 3; b++ {
		u.MustAddRow(newVar(), p(), table.Int(int64(b)))
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if rng.Float64() < 0.6 {
				s.MustAddRow(newVar(), p(), table.Int(int64(a)), table.Int(int64(b)))
			}
		}
	}
	c.MustAdd(r)
	c.MustAdd(s)
	c.MustAdd(u)
	return c
}

// ladderDTreeBudget is the one compile budget that starves the OBDD rung of
// hardQuery's ladder on hardDB(seed 1) but not the d-tree rung: the
// per-answer maximum step counts there are 18 in the ordered setting and 15
// in the decomposing one (TestLadderBudgetStraddles).
const ladderDTreeBudget = 16

// hardQuery is π{c}(R(a,c) ⋈ S(a,b) ⋈ T(b)): S joins R on a and T on b with
// incomparable relation sets, so no hierarchical signature exists; the head
// attribute c fans the answer into multiple groups.
func hardQuery() *query.Query {
	return &query.Query{
		Name: "hard",
		Head: []string{"c"},
		Rels: []query.RelRef{
			query.Rel("R", "a", "c"),
			query.Rel("S", "a", "b"),
			query.Rel("T", "b"),
		},
	}
}

// TestMonteCarloPlanVsWorlds: the Monte Carlo plan's estimates on the hard
// Boolean query must land within ε of exact possible-world enumeration, for
// several randomized instances with fixed seeds.
func TestMonteCarloPlanVsWorlds(t *testing.T) {
	const eps = 0.02
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(41 + trial)))
		c := hardDB(rng)
		q := hardQuery()
		res, err := Run(c, q, fd.NewSet(), Spec{
			Style: MonteCarlo,
			MC:    prob.MCOptions{Epsilon: eps, Delta: 1e-4, Seed: int64(trial)},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Stats.Approximate {
			t.Error("Monte Carlo plan must mark stats approximate")
		}

		answer, err := Answer(c, q)
		if err != nil {
			t.Fatal(err)
		}
		l, err := conf.CollectLineage(answer)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Keys) != res.Rows.Len() {
			t.Fatalf("trial %d: %d lineage groups vs %d result rows", trial, len(l.Keys), res.Rows.Len())
		}
		ci := res.Rows.Schema.MustColIndex(conf.ConfCol)
		for i := range l.Keys {
			want, err := prob.ProbByWorlds(l.DNFs[i], l.Assign)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Rows.Rows[i][ci].F
			if math.Abs(got-want) > eps {
				t.Errorf("trial %d answer %d: estimate %g, exact %g for %s",
					trial, i, got, want, l.DNFs[i])
			}
		}
	}
}

// TestLadderBudgetStraddles: ladderDTreeBudget lies between the two
// settings' per-answer maximum step counts on hardDB(seed 1) — the smallest
// budget under which each compiles every answer exactly — so the ladder
// tests that pin it land on the d-tree rung.
func TestLadderBudgetStraddles(t *testing.T) {
	c := hardDB(rand.New(rand.NewSource(1)))
	maxSteps := func(style Style) int {
		for n := 1; n <= 64; n++ {
			spec := Spec{Style: style, Compile: dtree.Options{NodeBudget: n}, RequireExact: true}
			if _, err := Run(c, hardQuery(), fd.NewSet(), spec); err == nil {
				return n
			}
		}
		t.Fatalf("%v: no budget up to 64 compiles every answer exactly", style)
		return 0
	}
	ordered, decomposing := maxSteps(OBDD), maxSteps(DTree)
	if ordered != 18 || decomposing != 15 {
		t.Errorf("per-answer maximum steps: ordered %d, decomposing %d; want 18 and 15", ordered, decomposing)
	}
	if !(decomposing <= ladderDTreeBudget && ladderDTreeBudget < ordered) {
		t.Errorf("budget %d does not starve only the OBDD rung (maxima: ordered %d, decomposing %d)",
			ladderDTreeBudget, ordered, decomposing)
	}
}

// TestExactStylesFallBack: every exact style falls through the ladder on
// the hard query — OBDD compilation first (the small instance fits the
// budget, so the result stays *exact*), then d-tree decomposition when the
// node budget is starved (still exact), Monte Carlo only when both budgets
// are too tight — annotating the plan line; RequireExact keeps the
// rejection.
func TestExactStylesFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := hardDB(rng)
	for _, style := range []Style{Lazy, Eager, Hybrid, SafeMystiQ} {
		res, err := Run(c, hardQuery(), fd.NewSet(), Spec{Style: style, MC: prob.MCOptions{Seed: 2}})
		if err != nil {
			t.Fatalf("%v: fallback failed: %v", style, err)
		}
		if res.Stats.Approximate {
			t.Errorf("%v: OBDD fallback under budget must stay exact", style)
		}
		if !strings.Contains(res.Stats.Plan, "fallback") || !strings.Contains(res.Stats.Plan, style.String()) ||
			!strings.Contains(res.Stats.Plan, "obdd") {
			t.Errorf("%v: plan line should mention the OBDD fallback: %q", style, res.Stats.Plan)
		}
		if res.Stats.OBDDNodes == 0 {
			t.Errorf("%v: OBDD fallback should report nodes", style)
		}

		// A budget that starves only the ordered setting pushes the ladder
		// to the order-free d-tree rung, which still resolves the lineage
		// exactly.
		res, err = Run(c, hardQuery(), fd.NewSet(), Spec{
			Style:   style,
			MC:      prob.MCOptions{Seed: 2},
			Compile: dtree.Options{NodeBudget: ladderDTreeBudget},
		})
		if err != nil {
			t.Fatalf("%v: d-tree fallback failed: %v", style, err)
		}
		if res.Stats.Approximate {
			t.Errorf("%v: d-tree fallback under budget must stay exact: %+v", style, res.Stats)
		}
		if !strings.Contains(res.Stats.Plan, "dtree") || !strings.Contains(res.Stats.Plan, "OBDD budget exceeded") {
			t.Errorf("%v: plan line should mention the d-tree rung: %q", style, res.Stats.Plan)
		}
		if res.Stats.DTreeNodes == 0 {
			t.Errorf("%v: d-tree fallback should report steps", style)
		}

		// Starving the compile budget for both settings pushes the ladder
		// down to Monte Carlo.
		res, err = Run(c, hardQuery(), fd.NewSet(), Spec{
			Style:   style,
			MC:      prob.MCOptions{Seed: 2},
			Compile: dtree.Options{NodeBudget: 1},
		})
		if err != nil {
			t.Fatalf("%v: MC fallback failed: %v", style, err)
		}
		if !res.Stats.Approximate || res.Stats.Samples == 0 {
			t.Errorf("%v: starved-budget fallback must be a Monte Carlo estimate: %+v", style, res.Stats)
		}
		if !strings.Contains(res.Stats.Plan, "mc") || !strings.Contains(res.Stats.Plan, "budgets exceeded") {
			t.Errorf("%v: plan line should mention the Monte Carlo rung: %q", style, res.Stats.Plan)
		}

		if _, err := Run(c, hardQuery(), fd.NewSet(), Spec{Style: style, RequireExact: true}); err == nil {
			t.Errorf("%v: RequireExact must reject the hard query", style)
		}
	}
}

// TestMonteCarloPlanDeterministic: same seed, same estimates; the worker
// count must not matter.
func TestMonteCarloPlanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := hardDB(rng)
	run := func(workers int) *Result {
		res, err := Run(c, hardQuery(), fd.NewSet(), Spec{
			Style: MonteCarlo,
			MC:    prob.MCOptions{Seed: 12, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	ci := a.Rows.Schema.MustColIndex(conf.ConfCol)
	for i := range a.Rows.Rows {
		if a.Rows.Rows[i][ci].F != b.Rows.Rows[i][ci].F {
			t.Errorf("row %d: %g (1 worker) vs %g (8 workers)", i, a.Rows.Rows[i][ci].F, b.Rows.Rows[i][ci].F)
		}
	}
}

// TestUnknownStyleRejected: an invalid style must error even on queries
// where exact styles would fall back to Monte Carlo.
func TestUnknownStyleRejected(t *testing.T) {
	c := hardDB(rand.New(rand.NewSource(1)))
	if _, err := Run(c, hardQuery(), fd.NewSet(), Spec{Style: Style(99)}); err == nil {
		t.Error("unknown style must be rejected, not estimated")
	}
	if s, err := ParseStyle("mc"); err != nil || s != MonteCarlo {
		t.Errorf("ParseStyle(mc) = %v, %v", s, err)
	}
	if _, err := ParseStyle("bogus"); err == nil {
		t.Error("ParseStyle must reject unknown names")
	}
}
